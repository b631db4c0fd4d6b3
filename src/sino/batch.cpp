#include "sino/batch.h"

#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "sino/anneal.h"
#include "sino/evaluator.h"
#include "sino/greedy.h"
#include "sino/net_order.h"

namespace rlcr::sino {

SinoBatchResult solve_one(const SinoBatchItem& item,
                          const ktable::KeffModel& keff) {
  SinoBatchResult out;
  if (item.instance == nullptr || item.instance->net_count() == 0) return out;
  const SinoInstance& inst = *item.instance;
  RLCR_TRACE_SPAN(span, "sino.solve", "sino");
  span.arg("nets", static_cast<double>(inst.net_count()));

  const SinoEvaluator eval(inst, keff);
  out.slots = item.mode == SinoSolveMode::kNetOrder
                  ? solve_net_order(inst, keff).slots
                  : solve_greedy(inst, keff);
  // One pass gives both feasibility and Ki under the chosen slots.
  out.feasible = eval.check(out.slots, &out.ki).feasible();
  if (!out.feasible && item.mode == SinoSolveMode::kGreedyAnneal) {
    AnnealOptions ao;
    ao.seed = item.anneal_seed;
    ao.iterations = item.anneal_iterations;
    AnnealResult best = solve_anneal(inst, keff, ao);
    out.annealed = true;
    // best.feasible is check(best.slots).feasible() under this model.
    if (best.feasible) {
      out.slots = std::move(best.slots);
      out.feasible = true;
      out.ki = eval.all_ki(out.slots);
    }
  }
  return out;
}

std::vector<SinoBatchResult> solve_batch(const std::vector<SinoBatchItem>& items,
                                         const ktable::KeffModel& keff,
                                         const SinoBatchOptions& options) {
  return parallel::parallel_map<SinoBatchResult>(
      items.size(), options.grain, options.threads,
      [&](std::size_t i) { return solve_one(items[i], keff); });
}

}  // namespace rlcr::sino
