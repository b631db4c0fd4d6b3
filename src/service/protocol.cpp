#include "service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/hash.h"

namespace rlcr::service {

namespace {

constexpr std::uint8_t kMagic[8] = {'R', 'L', 'C', 'R', 'S', 'V', 'C', '\0'};
constexpr std::size_t kNameCap = 256;  ///< wire cap for every string field

std::uint64_t payload_checksum(const std::uint8_t* data, std::size_t size) {
  util::Fnv1a64 h;
  for (std::size_t i = 0; i < size; ++i) h.u8(data[i]);
  return h.value();
}

bool valid_type(std::uint32_t t) {
  return t >= static_cast<std::uint32_t>(PduType::kHello) &&
         t <= static_cast<std::uint32_t>(PduType::kError);
}

}  // namespace

// ------------------------------------------------------------ the query

void WhatIfQuery::encode(util::BinaryWriter& w) const {
  w.u8(static_cast<std::uint8_t>(source));
  w.str(circuit);
  w.f64(scale);
  w.u64(tiny_nets);
  w.f64(rate);
  w.f64(bound_v);
  w.u64(seed);
  w.u8(flow);
  w.u8(has_bound ? 1 : 0);
  w.f64(scenario_bound_v);
  w.u8(has_margin ? 1 : 0);
  w.f64(scenario_margin);
  w.u8(has_anneal ? 1 : 0);
  w.u8(scenario_anneal ? 1 : 0);
}

bool WhatIfQuery::decode(util::BinaryReader& r) {
  const std::uint8_t src = r.u8();
  if (src > static_cast<std::uint8_t>(QuerySource::kTiny)) return false;
  source = static_cast<QuerySource>(src);
  if (!r.str(circuit, kNameCap)) return false;
  scale = r.f64();
  tiny_nets = r.u64();
  rate = r.f64();
  bound_v = r.f64();
  seed = r.u64();
  flow = r.u8();
  if (flow > 2) return false;
  has_bound = r.u8() != 0;
  scenario_bound_v = r.f64();
  has_margin = r.u8() != 0;
  scenario_margin = r.f64();
  has_anneal = r.u8() != 0;
  scenario_anneal = r.u8() != 0;
  return r.ok();
}

std::uint64_t query_session_key(const WhatIfQuery& q) {
  util::Fnv1a64 h;
  h.u8(static_cast<std::uint8_t>(q.source))
      .str(q.circuit)
      .f64(q.scale)
      .u64(q.tiny_nets)
      .f64(q.rate)
      .f64(q.bound_v)
      .u64(q.seed);
  return h.value();
}

std::uint64_t query_coalesce_key(const WhatIfQuery& q) {
  util::Fnv1a64 h;
  h.u64(query_session_key(q))
      .u8(q.flow)
      .boolean(q.has_bound)
      .f64(q.has_bound ? q.scenario_bound_v : 0.0)
      .boolean(q.has_margin)
      .f64(q.has_margin ? q.scenario_margin : 0.0)
      .boolean(q.has_anneal)
      .boolean(q.has_anneal ? q.scenario_anneal : false);
  return h.value();
}

// ------------------------------------------------------------- the PDUs

void Hello::encode_payload(util::BinaryWriter& w) const {
  w.u32(protocol_version);
  w.str(client_name);
}
bool Hello::decode_payload(util::BinaryReader& r) {
  protocol_version = r.u32();
  return r.str(client_name, kNameCap) && r.ok();
}

void HelloAck::encode_payload(util::BinaryWriter& w) const {
  w.u64(client_id);
  w.u32(protocol_version);
  w.str(server_name);
}
bool HelloAck::decode_payload(util::BinaryReader& r) {
  client_id = r.u64();
  protocol_version = r.u32();
  return r.str(server_name, kNameCap) && r.ok();
}

void Submit::encode_payload(util::BinaryWriter& w) const { query.encode(w); }
bool Submit::decode_payload(util::BinaryReader& r) { return query.decode(r); }

void SubmitAck::encode_payload(util::BinaryWriter& w) const {
  w.u64(ticket);
  w.u8(static_cast<std::uint8_t>(reject));
  w.u8(coalesced);
}
bool SubmitAck::decode_payload(util::BinaryReader& r) {
  ticket = r.u64();
  const std::uint8_t rej = r.u8();
  if (rej > static_cast<std::uint8_t>(RejectReason::kShuttingDown)) {
    return false;
  }
  reject = static_cast<RejectReason>(rej);
  coalesced = r.u8();
  return r.ok();
}

void Poll::encode_payload(util::BinaryWriter& w) const {
  w.u64(ticket);
  w.u32(wait_ms);
}
bool Poll::decode_payload(util::BinaryReader& r) {
  ticket = r.u64();
  wait_ms = r.u32();
  return r.ok();
}

void FlowSummary::encode(util::BinaryWriter& w) const {
  w.u8(flow);
  w.f64(bound_v);
  w.u64(route_hash);
  w.u64(state_hash);
  w.u64(violating);
  w.u64(unfixable);
  w.f64(total_wirelength_um);
  w.f64(avg_wirelength_um);
  w.f64(total_shields);
  w.f64(route_s);
  w.f64(sino_s);
  w.f64(refine_s);
  w.f64(compute_s);
  w.u8(warm);
}
bool FlowSummary::decode(util::BinaryReader& r) {
  flow = r.u8();
  if (flow > 2) return false;
  bound_v = r.f64();
  route_hash = r.u64();
  state_hash = r.u64();
  violating = r.u64();
  unfixable = r.u64();
  total_wirelength_um = r.f64();
  avg_wirelength_um = r.f64();
  total_shields = r.f64();
  route_s = r.f64();
  sino_s = r.f64();
  refine_s = r.f64();
  compute_s = r.f64();
  warm = r.u8();
  return r.ok();
}

void Result::encode_payload(util::BinaryWriter& w) const {
  w.u64(ticket);
  w.u8(static_cast<std::uint8_t>(state));
  if (state == JobState::kDone) summary.encode(w);
  w.str(error);
}
bool Result::decode_payload(util::BinaryReader& r) {
  ticket = r.u64();
  const std::uint8_t st = r.u8();
  if (st > static_cast<std::uint8_t>(JobState::kCancelled)) return false;
  state = static_cast<JobState>(st);
  if (state == JobState::kDone && !summary.decode(r)) return false;
  return r.str(error, kNameCap) && r.ok();
}

void Cancel::encode_payload(util::BinaryWriter& w) const { w.u64(ticket); }
bool Cancel::decode_payload(util::BinaryReader& r) {
  ticket = r.u64();
  return r.ok();
}

void CancelAck::encode_payload(util::BinaryWriter& w) const {
  w.u64(ticket);
  w.u8(cancelled);
}
bool CancelAck::decode_payload(util::BinaryReader& r) {
  ticket = r.u64();
  cancelled = r.u8();
  return r.ok();
}

void Stats::encode_payload(util::BinaryWriter&) const {}
bool Stats::decode_payload(util::BinaryReader& r) { return r.ok(); }

void StatsReply::encode_payload(util::BinaryWriter& w) const {
  w.u64(metrics.size());
  for (const Metric& m : metrics) {
    w.str(m.name);
    w.u8(m.kind);
    w.f64(m.value);
  }
}
bool StatsReply::decode_payload(util::BinaryReader& r) {
  const std::uint64_t n = r.seq_size(/*elem_bytes=*/13);
  if (!r.ok()) return false;
  metrics.resize(static_cast<std::size_t>(n));
  for (Metric& m : metrics) {
    if (!r.str(m.name, kNameCap)) return false;
    m.kind = r.u8();
    if (m.kind > 1) return false;
    m.value = r.f64();
  }
  return r.ok();
}

void Error::encode_payload(util::BinaryWriter& w) const {
  w.u32(static_cast<std::uint32_t>(code));
  w.str(message);
}
bool Error::decode_payload(util::BinaryReader& r) {
  const std::uint32_t c = r.u32();
  if (c < static_cast<std::uint32_t>(ErrorCode::kMalformed) ||
      c > static_cast<std::uint32_t>(ErrorCode::kInternal)) {
    return false;
  }
  code = static_cast<ErrorCode>(c);
  return r.str(message, kNameCap) && r.ok();
}

// ------------------------------------------------------------- framing

std::vector<std::uint8_t> encode_frame(PduType type,
                                       std::vector<std::uint8_t> payload) {
  util::BinaryWriter w;
  for (const std::uint8_t b : kMagic) w.u8(b);
  w.u32(kProtocolVersion);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(payload.size());
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  util::BinaryWriter tail;
  tail.u64(payload_checksum(payload.data(), payload.size()));
  const std::vector<std::uint8_t> t = tail.take();
  out.insert(out.end(), t.begin(), t.end());
  return out;
}

ParseStatus try_parse(const std::uint8_t* data, std::size_t size,
                      std::size_t* consumed, Frame* out) {
  *consumed = 0;
  // Validate what we can of the header as soon as the bytes exist: a bad
  // magic or version is kBad at 12 bytes, not after a full frame arrives.
  const std::size_t magic_have = std::min(size, sizeof kMagic);
  if (std::memcmp(data, kMagic, magic_have) != 0) return ParseStatus::kBad;
  if (size < kFrameHeaderBytes) return ParseStatus::kNeedMore;

  util::BinaryReader h(data, kFrameHeaderBytes);
  for (std::size_t i = 0; i < sizeof kMagic; ++i) h.u8();
  if (h.u32() != kProtocolVersion) return ParseStatus::kBad;
  const std::uint32_t type = h.u32();
  if (!valid_type(type)) return ParseStatus::kBad;
  const std::uint64_t payload_size = h.u64();
  if (payload_size > kMaxPayloadBytes) return ParseStatus::kBad;

  const std::size_t total = kFrameHeaderBytes +
                            static_cast<std::size_t>(payload_size) +
                            kFrameChecksumBytes;
  if (size < total) return ParseStatus::kNeedMore;

  const std::uint8_t* payload = data + kFrameHeaderBytes;
  util::BinaryReader tail(payload + payload_size, kFrameChecksumBytes);
  if (tail.u64() !=
      payload_checksum(payload, static_cast<std::size_t>(payload_size))) {
    return ParseStatus::kBad;
  }

  out->type = static_cast<PduType>(type);
  out->payload.assign(payload, payload + payload_size);
  *consumed = total;
  return ParseStatus::kFrame;
}

// --------------------------------------------- blocking socket helpers

bool send_frame(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

FrameReader::Status FrameReader::next(Frame* out) {
  for (;;) {
    if (!buf_.empty()) {
      std::size_t consumed = 0;
      const ParseStatus st =
          try_parse(buf_.data(), buf_.size(), &consumed, out);
      if (st == ParseStatus::kFrame) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
        return Status::kFrame;
      }
      if (st == ParseStatus::kBad) return Status::kBad;
    }
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::kError;
    }
    if (n == 0) {
      // EOF between frames is a clean close; mid-frame it is truncation.
      return buf_.empty() ? Status::kClosed : Status::kBad;
    }
    buf_.insert(buf_.end(), chunk, chunk + n);
  }
}

}  // namespace rlcr::service
