#include "sino/evaluator.h"

#include <algorithm>

namespace rlcr::sino {

namespace {

/// Calls visit(net, ki) for each net in slot order, with its Ki from the one
/// kernel; stops early when visit returns false.
template <typename Visit>
void for_each_ki(const SinoInstance& inst, const ktable::KeffModel& keff,
                 const SlotVec& slots, Visit&& visit) {
  int shields_left = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const ktable::Slot net = slots[s];
    if (net < 0) {
      if (net == kShieldSlot) ++shields_left;
      continue;
    }
    const auto v = static_cast<std::size_t>(net);
    const double k =
        keff.coupling_sum(slots, s, shields_left, [&](ktable::Slot other) {
          return inst.sensitive(v, static_cast<std::size_t>(other));
        });
    if (!visit(v, k)) return;
  }
}

/// Sensitive net pairs on capacitively adjacent tracks: each occupied slot
/// against the next occupied slot to its right (empties do not block
/// capacitive coupling; shields and nets do).
int capacitive_violations(const SinoInstance& inst, const SlotVec& slots) {
  int violations = 0;
  ktable::Slot prev = kEmptySlot;
  for (const ktable::Slot s : slots) {
    if (s == kEmptySlot) continue;
    if (prev >= 0 && s >= 0 &&
        inst.sensitive(static_cast<std::size_t>(prev),
                       static_cast<std::size_t>(s))) {
      ++violations;
    }
    prev = s;
  }
  return violations;
}

}  // namespace

double SinoEvaluator::ki(const SlotVec& slots, std::size_t slot_index) const {
  const auto victim_net = slots[slot_index];
  if (victim_net < 0) return 0.0;
  const auto v = static_cast<std::size_t>(victim_net);
  return keff_->total_coupling(slots, slot_index, [&](ktable::Slot other) {
    return instance_->sensitive(v, static_cast<std::size_t>(other));
  });
}

std::vector<double> SinoEvaluator::all_ki(const SlotVec& slots) const {
  std::vector<double> out(instance_->net_count(), 0.0);
  for_each_ki(*instance_, *keff_, slots, [&](std::size_t net, double k) {
    out[net] = k;
    return true;
  });
  return out;
}

SinoCheck SinoEvaluator::check(const SlotVec& slots,
                               std::vector<double>* ki) const {
  SinoCheck result;
  if (ki != nullptr) ki->assign(instance_->net_count(), 0.0);

  // Placement completeness: every net exactly once.
  std::vector<int> seen(instance_->net_count(), 0);
  bool ok = true;
  for (ktable::Slot s : slots) {
    if (s >= 0) {
      const auto i = static_cast<std::size_t>(s);
      if (i >= seen.size() || seen[i]++) ok = false;
    }
  }
  for (int c : seen) {
    if (c != 1) ok = false;
  }
  result.placed_all = ok;

  result.capacitive_violations = capacitive_violations(*instance_, slots);

  // Inductive: Ki vs Kth per net.
  for_each_ki(*instance_, *keff_, slots, [&](std::size_t net, double k) {
    if (ki != nullptr) (*ki)[net] = k;
    const double bound = instance_->net(net).kth;
    if (k > bound) {
      ++result.inductive_violations;
      result.inductive_excess += k - bound;
    }
    return true;
  });
  return result;
}

bool SinoEvaluator::constraints_hold(const SlotVec& slots) const {
  if (capacitive_violations(*instance_, slots) != 0) return false;
  bool hold = true;
  for_each_ki(*instance_, *keff_, slots, [&](std::size_t net, double k) {
    hold = !(k > instance_->net(net).kth);  // check()'s violation test
    return hold;
  });
  return hold;
}

bool SinoEvaluator::insertion_holds(const SlotVec& slots,
                                    std::size_t pos) const {
  if (!keff_->coupling_monotone(slots.size())) return constraints_hold(slots);
  const SinoInstance& inst = *instance_;
  const auto x = static_cast<std::size_t>(slots[pos]);

  // The two new adjacencies: x against the nearest occupied slot on each
  // side (empties are transparent, a shield blocks).
  const auto conflicts = [&](ktable::Slot other) {
    return other >= 0 && inst.sensitive(x, static_cast<std::size_t>(other));
  };
  std::size_t left = pos;
  while (left > 0 && slots[left - 1] == kEmptySlot) --left;
  if (left > 0 && conflicts(slots[left - 1])) return false;
  std::size_t right = pos + 1;
  while (right < slots.size() && slots[right] == kEmptySlot) ++right;
  if (right < slots.size() && conflicts(slots[right])) return false;

  // Ki of `v` in slot `s`, against check()'s violation test.
  const auto within_bound = [&](std::size_t v, std::size_t s, int shields_left) {
    const double k =
        keff_->coupling_sum(slots, s, shields_left, [&](ktable::Slot other) {
          return inst.sensitive(v, static_cast<std::size_t>(other));
        });
    return !(k > inst.net(v).kth);
  };
  const auto shields_before_pos = static_cast<int>(std::count(
      slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(pos),
      kShieldSlot));
  if (!within_bound(x, pos, shields_before_pos)) return false;

  // The victims that gained x as an aggressor.
  int shields_left = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const ktable::Slot net = slots[s];
    if (net < 0) {
      if (net == kShieldSlot) ++shields_left;
      continue;
    }
    const auto v = static_cast<std::size_t>(net);
    if (!inst.sensitive(v, x)) continue;
    if (!within_bound(v, s, shields_left)) return false;
  }
  return true;
}

int SinoEvaluator::area(const SlotVec& slots) {
  int n = 0;
  for (ktable::Slot s : slots) {
    if (s != kEmptySlot) ++n;
  }
  return n;
}

int SinoEvaluator::shield_count(const SlotVec& slots) {
  int n = 0;
  for (ktable::Slot s : slots) {
    if (s == kShieldSlot) ++n;
  }
  return n;
}

double SinoEvaluator::cost(const SlotVec& slots, double violation_penalty) const {
  const SinoCheck c = check(slots);
  double penalty = violation_penalty *
                   (c.capacitive_violations + c.inductive_violations);
  penalty += violation_penalty * c.inductive_excess;
  if (!c.placed_all) penalty += 1e6;
  return static_cast<double>(area(slots)) + penalty;
}

}  // namespace rlcr::sino
