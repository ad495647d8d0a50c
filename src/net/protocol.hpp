// The npdp wire protocol: versioned, length-prefixed binary frames over a
// TCP byte stream (docs/networking.md has the full byte-offset table).
//
// Every frame is a fixed 20-byte header followed by `length` payload
// bytes, all integers little-endian:
//
//   offset size field
//   0      4    magic 0x5044504E ("NPDP")
//   4      2    protocol version (kVersion)
//   6      2    message type (MsgType)
//   8      8    request id (echoed verbatim in the response)
//   16     4    payload length in bytes
//
// Request payloads open with a common prefix [priority i32][deadline-ms
// u32] (deadline 0 = none, relative to server receipt) followed by
// kind-specific fields, so PR 3's deadline semantics and the priority
// queue survive the network hop. Strings travel as [u32 length][bytes].
//
// Version 2 appends an optional trace context to the common request
// prefix: [flags u8] where bit0 = context present and bit1 = sampled,
// then (iff bit0) [trace_id u64][parent_span_id u64], then (iff bit2)
// [tenant u16] — the QoS tenant tag, omitted for the default tenant 0 so
// untagged frames stay byte-identical to pre-tenant ones. Version-1
// frames carry no context and decode exactly as before — the server accepts
// both versions (kMinVersion..kVersion) and keys its decode on the
// header's version field. Response payloads are identical across both
// versions. v2 also adds the StatsRequest/StatsResponse frame pair: a
// binary snapshot of the metrics registry (counters, gauges, histogram
// buckets), breaker board, and queue depth for live polling (`npdp top`).
//
// Decoding is defensive end to end: every read is bounds-checked, a
// payload must be consumed exactly (trailing bytes are an error), and
// enum bytes outside their range fail the frame. A malformed payload is
// answered with a typed ProtoError frame; it never crashes a reactor and
// never desynchronizes the stream (frames are length-delimited, so the
// connection survives). Only an unrecognizable *header* — wrong magic —
// forces a disconnect, because nothing downstream of it can be trusted.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span_context.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"

namespace cellnpdp::net {

constexpr std::uint32_t kMagic = 0x5044504E;  // "NPDP" when read as LE bytes
constexpr std::uint16_t kVersion = 2;     ///< current: trace ctx + stats frames
constexpr std::uint16_t kMinVersion = 1;  ///< oldest version still decoded
constexpr std::size_t kHeaderSize = 20;
/// Default payload-size cap (configurable per server); a frame claiming
/// more is refused before any buffering happens.
constexpr std::size_t kDefaultMaxFrame = 1u << 20;

enum class MsgType : std::uint16_t {
  // Requests (client -> server).
  Ping = 1,    ///< empty payload; answered with Pong (pure RTT probe)
  Solve = 2,   ///< serve::SolveSpec
  Fold = 3,    ///< serve::FoldSpec
  Parse = 4,   ///< serve::ParseSpec
  Chain = 5,   ///< serve::ChainSpec
  Bst = 6,     ///< serve::BstSpec
  Stats = 7,   ///< empty payload; answered with StatsText
  StatsRequest = 8,  ///< empty payload; answered with StatsResponse (v2)
  // Responses (server -> client).
  Pong = 128,
  Result = 129,     ///< terminal serve::Response for one request
  StatsText = 130,  ///< JSON snapshot of server + service counters
  ProtoError = 131, ///< typed protocol error (see ProtoErrorCode)
  StatsResponse = 132,  ///< binary metrics/breaker/queue snapshot (v2)
  // Peer frames (peer <-> peer, src/dist): symmetric — either side of a
  // peer connection may send any of them. A request/response server that
  // receives one answers UnknownType, exactly as for any type it does not
  // serve; peer frames additionally require a v2 header (v1 predates
  // them), which the peer decoder enforces per frame.
  PeerHello = 192,     ///< rank + workload fingerprint, opens a connection
  // 193 was BlockAnnounce: retired, never reuse.
  BlockData = 194,     ///< a finished block: coords, checksum, cell bytes
  PeerDone = 195,      ///< sender computed all owned blocks and saw all others
};

constexpr bool is_request_type(MsgType t) {
  return t == MsgType::Ping || t == MsgType::Solve || t == MsgType::Fold ||
         t == MsgType::Parse || t == MsgType::Chain || t == MsgType::Bst ||
         t == MsgType::Stats || t == MsgType::StatsRequest;
}

enum class ProtoErrorCode : std::uint16_t {
  None = 0,
  BadVersion = 1,     ///< header carried an unsupported protocol version
  FrameTooLarge = 2,  ///< payload length exceeds the server's cap
  BadPayload = 3,     ///< payload failed to decode (connection survives)
  UnknownType = 4,    ///< unrecognised message type (connection survives)
};

constexpr const char* proto_error_name(ProtoErrorCode c) {
  switch (c) {
    case ProtoErrorCode::None: return "none";
    case ProtoErrorCode::BadVersion: return "bad-version";
    case ProtoErrorCode::FrameTooLarge: return "frame-too-large";
    case ProtoErrorCode::BadPayload: return "bad-payload";
    case ProtoErrorCode::UnknownType: return "unknown-type";
  }
  return "?";
}

/// serve::Status <-> wire code. The wire values are frozen (appended-only)
/// so old clients keep decoding new servers.
constexpr std::uint16_t wire_status(serve::Status s) {
  return static_cast<std::uint16_t>(s);
}
constexpr bool status_from_wire(std::uint16_t v, serve::Status* out) {
  if (v > static_cast<std::uint16_t>(serve::Status::RetryAfter)) return false;
  *out = static_cast<serve::Status>(v);
  return true;
}

// --- byte-level writers ----------------------------------------------------

inline void put_u8(std::vector<std::uint8_t>& b, std::uint8_t v) {
  b.push_back(v);
}
inline void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}
inline void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void put_i32(std::vector<std::uint8_t>& b, std::int32_t v) {
  put_u32(b, static_cast<std::uint32_t>(v));
}
inline void put_i64(std::vector<std::uint8_t>& b, std::int64_t v) {
  put_u64(b, static_cast<std::uint64_t>(v));
}
inline void put_f64(std::vector<std::uint8_t>& b, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(b, bits);
}
inline void put_str(std::vector<std::uint8_t>& b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

// --- bounds-checked reader -------------------------------------------------

/// Sequential reader over one payload. Any out-of-bounds access latches
/// `ok = false` and every subsequent read returns a zero value, so decode
/// functions can read unconditionally and check `ok` once at the end.
struct WireReader {
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  std::size_t off = 0;
  bool ok = true;

  WireReader(const std::uint8_t* data, std::size_t len) : p(data), n(len) {}

  bool need(std::size_t k) {
    if (!ok || n - off < k || off > n) ok = false;
    return ok;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return p[off++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        p[off] | (static_cast<std::uint16_t>(p[off + 1]) << 8));
    off += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(p[off + i]) << (8 * i);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[off + i]) << (8 * i);
    off += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (!need(len)) return {};
    std::string s(reinterpret_cast<const char*>(p + off), len);
    off += len;
    return s;
  }
  /// A payload must be consumed exactly; trailing garbage fails it.
  bool done() const { return ok && off == n; }
};

// --- frame header ----------------------------------------------------------

struct FrameHeader {
  std::uint16_t version = 0;
  MsgType type = MsgType::Ping;
  std::uint64_t id = 0;
  std::uint32_t len = 0;
};

enum class HeaderParse { NeedMore, Ok, BadMagic };

/// Parses a header from the front of `data`. NeedMore means fewer than
/// kHeaderSize bytes are available; BadMagic means the stream is
/// unsynchronized and the connection must die. Version and length are
/// NOT validated here — the caller owns those policies (it may still
/// want the id to address an error reply).
inline HeaderParse parse_header(const std::uint8_t* data, std::size_t n,
                                FrameHeader* h) {
  if (n < kHeaderSize) return HeaderParse::NeedMore;
  WireReader r(data, kHeaderSize);
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) return HeaderParse::BadMagic;
  h->version = r.u16();
  h->type = static_cast<MsgType>(r.u16());
  h->id = r.u64();
  h->len = r.u32();
  return HeaderParse::Ok;
}

inline void encode_header(std::vector<std::uint8_t>& out, MsgType t,
                          std::uint64_t id, std::uint32_t len,
                          std::uint16_t version = kVersion) {
  put_u32(out, kMagic);
  put_u16(out, version);
  put_u16(out, static_cast<std::uint16_t>(t));
  put_u64(out, id);
  put_u32(out, len);
}

// --- requests --------------------------------------------------------------

/// One request as it travels: the serve::Request fields that make sense
/// on the wire, with the deadline relative (ms from server receipt)
/// instead of a time_point.
struct WireRequest {
  std::uint64_t id = 0;
  std::int32_t priority = 0;
  std::uint32_t deadline_ms = 0;  ///< 0 = no deadline
  obs::SpanContext trace{};       ///< optional; only travels on v2 frames
  std::uint16_t tenant = 0;       ///< optional; only travels on v2 frames
  serve::Payload payload = serve::SolveSpec{};
};

// Flag byte of the v2 request prefix. Bit 2 marks an optional [tenant
// u16] that follows the trace ids (same backward-compatible pattern as
// the trailing semiring tag: tenant 0 — the default — is never encoded,
// so frames from untagged clients stay byte-identical to pre-tenant
// ones, and pre-tenant decoders keep rejecting only genuinely unknown
// bits).
constexpr std::uint8_t kTraceFlagPresent = 0x01;
constexpr std::uint8_t kTraceFlagSampled = 0x02;
constexpr std::uint8_t kFlagTenant = 0x04;

inline MsgType request_msg_type(const serve::Payload& p) {
  switch (p.index()) {
    case 0: return MsgType::Solve;
    case 1: return MsgType::Fold;
    case 2: return MsgType::Parse;
    case 3: return MsgType::Chain;
    default: return MsgType::Bst;
  }
}

/// Encodes a complete frame (header + payload) for one request. Pass
/// `version = 1` to emit a legacy frame (no trace context) for servers
/// that predate v2.
inline std::vector<std::uint8_t> encode_request(
    const WireRequest& r, std::uint16_t version = kVersion) {
  std::vector<std::uint8_t> body;
  put_i32(body, r.priority);
  put_u32(body, r.deadline_ms);
  if (version >= 2) {
    std::uint8_t flags = 0;
    if (r.trace.valid()) {
      flags |= kTraceFlagPresent;
      if (r.trace.sampled) flags |= kTraceFlagSampled;
    }
    if (r.tenant != 0) flags |= kFlagTenant;
    put_u8(body, flags);
    if (r.trace.valid()) {
      put_u64(body, r.trace.trace_id);
      put_u64(body, r.trace.parent_span_id);
    }
    if (r.tenant != 0) put_u16(body, r.tenant);
  }
  if (const auto* s = std::get_if<serve::SolveSpec>(&r.payload)) {
    put_i64(body, s->n);
    put_u64(body, s->seed);
    put_i64(body, s->block_side);
    put_u8(body, static_cast<std::uint8_t>(s->kernel));
    put_str(body, s->backend);
    // Optional trailing semiring tag: omitted for min-plus so frames from
    // this encoder stay byte-identical to pre-semiring ones (and old
    // decoders, which reject trailing bytes, keep working for the one
    // semiring they know).
    if (s->semiring != SemiringId::MinPlus)
      put_u8(body, static_cast<std::uint8_t>(s->semiring));
  } else if (const auto* f = std::get_if<serve::FoldSpec>(&r.payload)) {
    put_i64(body, f->random_n);
    put_u64(body, f->seed);
    put_str(body, f->seq);
  } else if (const auto* p = std::get_if<serve::ParseSpec>(&r.payload)) {
    put_u8(body, static_cast<std::uint8_t>(p->grammar));
    put_str(body, p->text);
  } else if (const auto* c = std::get_if<serve::ChainSpec>(&r.payload)) {
    put_i64(body, c->n);
    put_u64(body, c->seed);
  } else {
    const auto& b = std::get<serve::BstSpec>(r.payload);
    put_i64(body, b.keys);
    put_u64(body, b.seed);
  }
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + body.size());
  encode_header(out, request_msg_type(r.payload), r.id,
                static_cast<std::uint32_t>(body.size()), version);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// Decodes the payload of a request frame of type `t` (Solve..Bst).
/// `version` is the frame header's version: v1 payloads carry no trace
/// context, v2 payloads carry the flag byte (+ ids when present).
/// Returns false with a human-readable `*err` on any malformation; `*out`
/// then holds no guarantees.
inline bool decode_request_payload(MsgType t, std::uint16_t version,
                                   std::uint64_t id, const std::uint8_t* p,
                                   std::size_t n, WireRequest* out,
                                   std::string* err) {
  WireReader r(p, n);
  out->id = id;
  out->priority = r.i32();
  out->deadline_ms = r.u32();
  out->trace = obs::SpanContext{};
  out->tenant = 0;
  if (version >= 2) {
    const std::uint8_t flags = r.u8();
    if ((flags & ~(kTraceFlagPresent | kTraceFlagSampled | kFlagTenant)) !=
        0) {
      *err = "unknown trace flag bits";
      return false;
    }
    if ((flags & kTraceFlagPresent) != 0) {
      out->trace.trace_id = r.u64();
      out->trace.parent_span_id = r.u64();
      out->trace.sampled = (flags & kTraceFlagSampled) != 0;
      if (r.ok && !out->trace.valid()) {
        *err = "trace context present but trace_id is zero";
        return false;
      }
    }
    if ((flags & kFlagTenant) != 0) {
      out->tenant = r.u16();
      if (r.ok && out->tenant == 0) {
        *err = "tenant flag set but tenant is zero";
        return false;
      }
      if (r.ok && out->tenant >= serve::kMaxTenants) {
        *err = "tenant id out of range";
        return false;
      }
    }
  }
  switch (t) {
    case MsgType::Solve: {
      serve::SolveSpec s;
      s.n = r.i64();
      s.seed = r.u64();
      s.block_side = r.i64();
      const std::uint8_t k = r.u8();
      s.backend = r.str();
      if (k > static_cast<std::uint8_t>(KernelKind::Wide)) {
        *err = "solve: kernel byte out of range";
        return false;
      }
      s.kernel = static_cast<KernelKind>(k);
      // Optional trailing semiring tag; absent means min-plus (clients
      // that predate semirings never emit it).
      if (r.ok && r.off < r.n) {
        const std::uint8_t sr = r.u8();
        if (sr >= kSemiringCount) {
          *err = "solve: semiring byte out of range";
          return false;
        }
        s.semiring = static_cast<SemiringId>(sr);
      }
      if (r.done() && (s.n < 1 || s.block_side < 1)) {
        *err = "solve: n and block must be >= 1";
        return false;
      }
      out->payload = s;
      break;
    }
    case MsgType::Fold: {
      serve::FoldSpec f;
      f.random_n = r.i64();
      f.seed = r.u64();
      f.seq = r.str();
      if (r.done() && f.seq.empty() && f.random_n < 1) {
        *err = "fold: needs seq or random >= 1";
        return false;
      }
      out->payload = f;
      break;
    }
    case MsgType::Parse: {
      serve::ParseSpec ps;
      const std::uint8_t g = r.u8();
      ps.text = r.str();
      if (g > static_cast<std::uint8_t>(serve::ParseSpec::GrammarKind::Anbn)) {
        *err = "parse: grammar byte out of range";
        return false;
      }
      ps.grammar = static_cast<serve::ParseSpec::GrammarKind>(g);
      out->payload = ps;
      break;
    }
    case MsgType::Chain: {
      serve::ChainSpec c;
      c.n = r.i64();
      c.seed = r.u64();
      if (r.done() && c.n < 1) {
        *err = "chain: n must be >= 1";
        return false;
      }
      out->payload = c;
      break;
    }
    case MsgType::Bst: {
      serve::BstSpec b;
      b.keys = r.i64();
      b.seed = r.u64();
      if (r.done() && b.keys < 1) {
        *err = "bst: keys must be >= 1";
        return false;
      }
      out->payload = b;
      break;
    }
    default:
      *err = "not a request payload type";
      return false;
  }
  if (!r.done()) {
    *err = r.ok ? "trailing bytes after payload" : "payload truncated";
    return false;
  }
  return true;
}

// --- responses -------------------------------------------------------------

/// A serve::Response as it travels (total/queue/solve latencies are the
/// *server-side* numbers; the client measures its own end-to-end time).
struct WireResponse {
  std::uint64_t id = 0;
  serve::Status status = serve::Status::Error;
  double value = 0;
  std::int64_t queue_ns = 0;
  std::int64_t solve_ns = 0;
  std::int64_t total_ns = 0;
  std::int64_t retry_after_ms = 0;
  std::string backend;  ///< effective engine name (see serve::Response)
  std::string detail;
};

inline std::vector<std::uint8_t> encode_response(const WireResponse& r) {
  std::vector<std::uint8_t> body;
  put_u16(body, wire_status(r.status));
  put_f64(body, r.value);
  put_i64(body, r.queue_ns);
  put_i64(body, r.solve_ns);
  put_i64(body, r.total_ns);
  put_i64(body, r.retry_after_ms);
  put_str(body, r.backend);
  put_str(body, r.detail);
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + body.size());
  encode_header(out, MsgType::Result, r.id,
                static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

inline std::vector<std::uint8_t> encode_response(const serve::Response& r) {
  WireResponse w;
  w.id = r.id;
  w.status = r.status;
  w.value = r.value;
  w.queue_ns = r.queue_ns;
  w.solve_ns = r.solve_ns;
  w.total_ns = r.total_ns;
  w.retry_after_ms = r.retry_after_ms;
  w.backend = r.backend;
  w.detail = r.detail;
  return encode_response(w);
}

inline bool decode_response_payload(std::uint64_t id, const std::uint8_t* p,
                                    std::size_t n, WireResponse* out,
                                    std::string* err) {
  WireReader r(p, n);
  out->id = id;
  const std::uint16_t st = r.u16();
  out->value = r.f64();
  out->queue_ns = r.i64();
  out->solve_ns = r.i64();
  out->total_ns = r.i64();
  out->retry_after_ms = r.i64();
  out->backend = r.str();
  out->detail = r.str();
  if (!r.done()) {
    *err = r.ok ? "trailing bytes after payload" : "payload truncated";
    return false;
  }
  if (!status_from_wire(st, &out->status)) {
    *err = "status code out of range";
    return false;
  }
  return true;
}

// --- control frames --------------------------------------------------------

inline std::vector<std::uint8_t> encode_empty(MsgType t, std::uint64_t id) {
  std::vector<std::uint8_t> out;
  encode_header(out, t, id, 0);
  return out;
}
inline std::vector<std::uint8_t> encode_ping(std::uint64_t id) {
  return encode_empty(MsgType::Ping, id);
}
inline std::vector<std::uint8_t> encode_pong(std::uint64_t id) {
  return encode_empty(MsgType::Pong, id);
}
inline std::vector<std::uint8_t> encode_stats_request(std::uint64_t id) {
  return encode_empty(MsgType::Stats, id);
}

inline std::vector<std::uint8_t> encode_stats_text(std::uint64_t id,
                                                   const std::string& json) {
  std::vector<std::uint8_t> body;
  put_str(body, json);
  std::vector<std::uint8_t> out;
  encode_header(out, MsgType::StatsText, id,
                static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}
inline bool decode_stats_text(const std::uint8_t* p, std::size_t n,
                              std::string* json) {
  WireReader r(p, n);
  *json = r.str();
  return r.done();
}

// --- binary stats snapshot (v2) --------------------------------------------

/// One circuit breaker as it travels in a StatsResponse.
struct WireBreaker {
  std::string name;
  std::uint8_t state = 0;  ///< resilience::BreakerState as a byte
  double failure_rate = 0;
  std::int64_t retry_after_ms = 0;
};

/// The StatsResponse payload: a one-pass metrics snapshot plus the
/// breaker board and current admission-queue depth. Histograms travel
/// as sparse (index, count) bucket lists; quantiles are recomputed on
/// the receiving side with the same interpolation code the server uses.
struct WireStats {
  obs::MetricsSnapshot metrics;
  std::vector<WireBreaker> breakers;
  std::int64_t queue_depth = 0;
};

inline std::vector<std::uint8_t> encode_stats_snapshot_request(
    std::uint64_t id) {
  return encode_empty(MsgType::StatsRequest, id);
}

inline std::vector<std::uint8_t> encode_stats_response(std::uint64_t id,
                                                       const WireStats& s) {
  std::vector<std::uint8_t> body;
  put_u32(body, static_cast<std::uint32_t>(s.metrics.counters.size()));
  for (const auto& [name, v] : s.metrics.counters) {
    put_str(body, name);
    put_i64(body, v);
  }
  put_u32(body, static_cast<std::uint32_t>(s.metrics.gauges.size()));
  for (const auto& [name, v] : s.metrics.gauges) {
    put_str(body, name);
    put_f64(body, v);
  }
  put_u32(body, static_cast<std::uint32_t>(s.metrics.histograms.size()));
  for (const auto& [name, h] : s.metrics.histograms) {
    put_str(body, name);
    put_i64(body, h.count);
    put_i64(body, h.sum);
    put_i64(body, h.min);
    put_i64(body, h.max);
    std::uint32_t nonzero = 0;
    for (const auto b : h.buckets) nonzero += (b != 0);
    put_u32(body, nonzero);
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      if (h.buckets[std::size_t(b)] == 0) continue;
      put_u8(body, static_cast<std::uint8_t>(b));
      put_i64(body, h.buckets[std::size_t(b)]);
    }
  }
  put_u32(body, static_cast<std::uint32_t>(s.breakers.size()));
  for (const auto& b : s.breakers) {
    put_str(body, b.name);
    put_u8(body, b.state);
    put_f64(body, b.failure_rate);
    put_i64(body, b.retry_after_ms);
  }
  put_i64(body, s.queue_depth);
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + body.size());
  encode_header(out, MsgType::StatsResponse, id,
                static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

inline bool decode_stats_response(const std::uint8_t* p, std::size_t n,
                                  WireStats* out, std::string* err) {
  WireReader r(p, n);
  // Every entry is >= 5 bytes, so a count larger than the payload length
  // is garbage — refuse it before looping (a hostile length would
  // otherwise cost O(count) latched-reader iterations).
  const auto sane = [&](std::uint32_t c) { return std::size_t(c) <= n; };
  const std::uint32_t nc = r.u32();
  if (!sane(nc)) {
    *err = "stats: counter count exceeds payload";
    return false;
  }
  out->metrics.counters.clear();
  out->metrics.counters.reserve(nc);
  for (std::uint32_t i = 0; i < nc && r.ok; ++i) {
    std::string name = r.str();
    const std::int64_t v = r.i64();
    out->metrics.counters.emplace_back(std::move(name), v);
  }
  const std::uint32_t ng = r.u32();
  if (!sane(ng)) {
    *err = "stats: gauge count exceeds payload";
    return false;
  }
  out->metrics.gauges.clear();
  out->metrics.gauges.reserve(ng);
  for (std::uint32_t i = 0; i < ng && r.ok; ++i) {
    std::string name = r.str();
    const double v = r.f64();
    out->metrics.gauges.emplace_back(std::move(name), v);
  }
  const std::uint32_t nh = r.u32();
  if (!sane(nh)) {
    *err = "stats: histogram count exceeds payload";
    return false;
  }
  out->metrics.histograms.clear();
  out->metrics.histograms.reserve(nh);
  for (std::uint32_t i = 0; i < nh && r.ok; ++i) {
    std::string name = r.str();
    obs::HistogramSnapshot h;
    h.count = r.i64();
    h.sum = r.i64();
    h.min = r.i64();
    h.max = r.i64();
    const std::uint32_t nb = r.u32();
    if (nb > obs::Histogram::kBuckets) {
      *err = "stats: histogram bucket count out of range";
      return false;
    }
    for (std::uint32_t b = 0; b < nb && r.ok; ++b) {
      const std::uint8_t idx = r.u8();
      const std::int64_t cnt = r.i64();
      if (idx >= obs::Histogram::kBuckets) {
        *err = "stats: bucket index out of range";
        return false;
      }
      h.buckets[idx] = cnt;
    }
    out->metrics.histograms.emplace_back(std::move(name), h);
  }
  const std::uint32_t nbk = r.u32();
  if (!sane(nbk)) {
    *err = "stats: breaker count exceeds payload";
    return false;
  }
  out->breakers.clear();
  out->breakers.reserve(nbk);
  for (std::uint32_t i = 0; i < nbk && r.ok; ++i) {
    WireBreaker b;
    b.name = r.str();
    b.state = r.u8();
    b.failure_rate = r.f64();
    b.retry_after_ms = r.i64();
    out->breakers.push_back(std::move(b));
  }
  out->queue_depth = r.i64();
  if (!r.done()) {
    *err = r.ok ? "trailing bytes after payload" : "payload truncated";
    return false;
  }
  return true;
}

inline std::vector<std::uint8_t> encode_proto_error(std::uint64_t id,
                                                    ProtoErrorCode code,
                                                    const std::string& msg) {
  std::vector<std::uint8_t> body;
  put_u16(body, static_cast<std::uint16_t>(code));
  put_str(body, msg);
  std::vector<std::uint8_t> out;
  encode_header(out, MsgType::ProtoError, id,
                static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}
inline bool decode_proto_error(const std::uint8_t* p, std::size_t n,
                               ProtoErrorCode* code, std::string* msg) {
  WireReader r(p, n);
  const std::uint16_t c = r.u16();
  *msg = r.str();
  if (!r.done() ||
      c > static_cast<std::uint16_t>(ProtoErrorCode::UnknownType))
    return false;
  *code = static_cast<ProtoErrorCode>(c);
  return true;
}

/// serve::Request from a decoded WireRequest, stamping the relative
/// deadline against `now` (the moment the server finished decoding).
inline serve::Request to_serve_request(
    const WireRequest& w, serve::Clock::time_point now = serve::Clock::now()) {
  serve::Request r;
  r.id = w.id;
  r.priority = w.priority;
  if (w.deadline_ms > 0)
    r.deadline = now + std::chrono::milliseconds(w.deadline_ms);
  r.trace = w.trace;
  r.tenant = w.tenant;
  r.payload = w.payload;
  return r;
}

}  // namespace cellnpdp::net
