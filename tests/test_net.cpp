// Tests for src/net: wire-protocol encode/decode round-trips (property
// style over seeded random payloads), truncation at every byte boundary,
// defensive decoding (bad magic / bad version / oversized / malformed /
// unknown type), and the epoll server end to end over loopback — all five
// request kinds, pipelined graceful drain, deadline expiry over the wire,
// mid-request disconnect, slow-loris idle timeout, and the load generator.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "apps/matrix_chain/matrix_chain.hpp"
#include "dist/peer_wire.hpp"
#include "apps/optimal_bst/optimal_bst.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/span_context.hpp"
#include "obs/trace.hpp"
#include "resilience/circuit_breaker.hpp"
#include "router/router.hpp"
#include "serve/solver_pool.hpp"

namespace cellnpdp::net {
namespace {

using std::chrono::milliseconds;
using Reply = NpdpClient::Reply;
using RecvStatus = NpdpClient::RecvStatus;

std::string random_text(SplitMix64& rng, std::size_t max_len) {
  std::string s(rng.next_below(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng.next_below(256));
  return s;
}

WireRequest random_request(SplitMix64& rng, int kind) {
  WireRequest w;
  w.id = rng.next_u64();
  w.priority = static_cast<std::int32_t>(rng.next_u64());
  w.deadline_ms = static_cast<std::uint32_t>(rng.next_below(1u << 20));
  // Half the requests carry a trace context (v2 optional field).
  if (rng.next_below(2) == 0) {
    w.trace.trace_id = 1 + rng.next_u64() % 0xFFFFFFFFull;
    w.trace.parent_span_id = rng.next_u64();
    w.trace.sampled = rng.next_below(2) == 0;
  }
  // And half carry a QoS tenant tag (the other v2 optional field).
  if (rng.next_below(2) == 0)
    w.tenant = static_cast<std::uint16_t>(1 + rng.next_below(255));
  switch (kind) {
    case 0: {
      serve::SolveSpec s;
      s.n = static_cast<index_t>(1 + rng.next_below(4096));
      s.seed = rng.next_u64();
      s.block_side = static_cast<index_t>(1 + rng.next_below(128));
      s.kernel = static_cast<KernelKind>(rng.next_below(3));
      s.backend = random_text(rng, 24);
      s.semiring = static_cast<SemiringId>(rng.next_below(kSemiringCount));
      w.payload = s;
      break;
    }
    case 1: {
      serve::FoldSpec f;
      f.random_n = static_cast<index_t>(1 + rng.next_below(1024));
      f.seed = rng.next_u64();
      f.seq = random_text(rng, 48);
      w.payload = f;
      break;
    }
    case 2: {
      serve::ParseSpec p;
      p.grammar = static_cast<serve::ParseSpec::GrammarKind>(rng.next_below(2));
      p.text = random_text(rng, 48);
      w.payload = p;
      break;
    }
    case 3: {
      serve::ChainSpec c;
      c.n = static_cast<index_t>(1 + rng.next_below(512));
      c.seed = rng.next_u64();
      w.payload = c;
      break;
    }
    default: {
      serve::BstSpec b;
      b.keys = static_cast<index_t>(1 + rng.next_below(512));
      b.seed = rng.next_u64();
      w.payload = b;
      break;
    }
  }
  return w;
}

// --- protocol round-trips --------------------------------------------------

TEST(Protocol, RequestRoundTripsOverSeededRandomPayloads) {
  SplitMix64 rng(2026);
  for (int iter = 0; iter < 200; ++iter) {
    const int kind = iter % 5;
    const WireRequest in = random_request(rng, kind);
    const std::vector<std::uint8_t> frame = encode_request(in);

    FrameHeader h;
    ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
    EXPECT_EQ(h.version, kVersion);
    EXPECT_EQ(h.id, in.id);
    ASSERT_EQ(frame.size(), kHeaderSize + h.len);

    WireRequest out;
    std::string err;
    ASSERT_TRUE(decode_request_payload(h.type, h.version, h.id,
                                       frame.data() + kHeaderSize, h.len, &out,
                                       &err))
        << "kind " << kind << ": " << err;
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.priority, in.priority);
    EXPECT_EQ(out.deadline_ms, in.deadline_ms);
    EXPECT_EQ(out.trace.trace_id, in.trace.trace_id);
    EXPECT_EQ(out.trace.parent_span_id, in.trace.parent_span_id);
    EXPECT_EQ(out.trace.sampled, in.trace.sampled);
    EXPECT_EQ(out.tenant, in.tenant);
    ASSERT_EQ(out.payload.index(), in.payload.index());
    if (const auto* s = std::get_if<serve::SolveSpec>(&in.payload)) {
      const auto& o = std::get<serve::SolveSpec>(out.payload);
      EXPECT_EQ(o.n, s->n);
      EXPECT_EQ(o.seed, s->seed);
      EXPECT_EQ(o.block_side, s->block_side);
      EXPECT_EQ(o.kernel, s->kernel);
      EXPECT_EQ(o.backend, s->backend);
      EXPECT_EQ(o.semiring, s->semiring);
    } else if (const auto* f = std::get_if<serve::FoldSpec>(&in.payload)) {
      const auto& o = std::get<serve::FoldSpec>(out.payload);
      EXPECT_EQ(o.random_n, f->random_n);
      EXPECT_EQ(o.seed, f->seed);
      EXPECT_EQ(o.seq, f->seq);
    } else if (const auto* p = std::get_if<serve::ParseSpec>(&in.payload)) {
      const auto& o = std::get<serve::ParseSpec>(out.payload);
      EXPECT_EQ(o.grammar, p->grammar);
      EXPECT_EQ(o.text, p->text);
    } else if (const auto* c = std::get_if<serve::ChainSpec>(&in.payload)) {
      const auto& o = std::get<serve::ChainSpec>(out.payload);
      EXPECT_EQ(o.n, c->n);
      EXPECT_EQ(o.seed, c->seed);
    } else {
      const auto& b = std::get<serve::BstSpec>(in.payload);
      const auto& o = std::get<serve::BstSpec>(out.payload);
      EXPECT_EQ(o.keys, b.keys);
      EXPECT_EQ(o.seed, b.seed);
    }
  }
}

TEST(Protocol, ResponseRoundTripsOverSeededRandomPayloads) {
  SplitMix64 rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    WireResponse in;
    in.id = rng.next_u64();
    in.status = static_cast<serve::Status>(rng.next_below(9));
    in.value = rng.next_in(-1e9, 1e9);
    in.queue_ns = static_cast<std::int64_t>(rng.next_u64() >> 1);
    in.solve_ns = static_cast<std::int64_t>(rng.next_u64() >> 1);
    in.total_ns = static_cast<std::int64_t>(rng.next_u64() >> 1);
    in.retry_after_ms = static_cast<std::int64_t>(rng.next_below(100000));
    in.backend = random_text(rng, 24);
    in.detail = random_text(rng, 100);
    const auto frame = encode_response(in);

    FrameHeader h;
    ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
    ASSERT_EQ(h.type, MsgType::Result);
    WireResponse out;
    std::string err;
    ASSERT_TRUE(decode_response_payload(h.id, frame.data() + kHeaderSize,
                                        h.len, &out, &err))
        << err;
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.status, in.status);
    EXPECT_EQ(out.value, in.value);
    EXPECT_EQ(out.queue_ns, in.queue_ns);
    EXPECT_EQ(out.solve_ns, in.solve_ns);
    EXPECT_EQ(out.total_ns, in.total_ns);
    EXPECT_EQ(out.retry_after_ms, in.retry_after_ms);
    EXPECT_EQ(out.backend, in.backend);
    EXPECT_EQ(out.detail, in.detail);
  }
}

TEST(Protocol, ControlFramesRoundTrip) {
  const auto ping = encode_ping(42);
  FrameHeader h;
  ASSERT_EQ(parse_header(ping.data(), ping.size(), &h), HeaderParse::Ok);
  EXPECT_EQ(h.type, MsgType::Ping);
  EXPECT_EQ(h.id, 42u);
  EXPECT_EQ(h.len, 0u);

  const std::string json = "{\"net\":{\"accepted\":3}}";
  const auto st = encode_stats_text(7, json);
  ASSERT_EQ(parse_header(st.data(), st.size(), &h), HeaderParse::Ok);
  std::string back;
  ASSERT_TRUE(decode_stats_text(st.data() + kHeaderSize, h.len, &back));
  EXPECT_EQ(back, json);

  const auto pe =
      encode_proto_error(9, ProtoErrorCode::BadPayload, "chain: n must be >= 1");
  ASSERT_EQ(parse_header(pe.data(), pe.size(), &h), HeaderParse::Ok);
  ProtoErrorCode code;
  std::string msg;
  ASSERT_TRUE(decode_proto_error(pe.data() + kHeaderSize, h.len, &code, &msg));
  EXPECT_EQ(code, ProtoErrorCode::BadPayload);
  EXPECT_EQ(msg, "chain: n must be >= 1");
}

TEST(Protocol, TruncationAtEveryByteBoundaryFailsCleanly) {
  SplitMix64 rng(5);
  for (int kind = 0; kind < 5; ++kind) {
    const WireRequest in = random_request(rng, kind);
    const auto frame = encode_request(in);
    FrameHeader h;
    ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
    // Every header prefix is just "need more bytes", never a parse.
    for (std::size_t cut = 0; cut < kHeaderSize; ++cut)
      EXPECT_EQ(parse_header(frame.data(), cut, &h), HeaderParse::NeedMore)
          << "cut " << cut;
    // Every proper payload prefix must fail decode — at every boundary.
    // One designed exception: the semiring tag is an optional trailing
    // byte, so cutting exactly it leaves a valid pre-semiring Solve frame
    // (that is what backward compatibility means) which decodes as the
    // min-plus default.
    const auto* sp = std::get_if<serve::SolveSpec>(&in.payload);
    const bool tagged = sp && sp->semiring != SemiringId::MinPlus;
    for (std::size_t cut = 0; cut < h.len; ++cut) {
      WireRequest out;
      std::string err;
      if (tagged && cut == h.len - 1) {
        ASSERT_TRUE(decode_request_payload(h.type, h.version, h.id,
                                           frame.data() + kHeaderSize, cut,
                                           &out, &err))
            << err;
        EXPECT_EQ(std::get<serve::SolveSpec>(out.payload).semiring,
                  SemiringId::MinPlus);
        continue;
      }
      EXPECT_FALSE(decode_request_payload(h.type, h.version, h.id,
                                          frame.data() + kHeaderSize, cut,
                                          &out, &err))
          << "kind " << kind << " cut " << cut << "/" << h.len;
    }
  }
}

TEST(Protocol, TrailingBytesAndBadEnumsFailDecode) {
  WireRequest in;
  in.id = 1;
  in.payload = serve::ChainSpec{8, 3};
  auto frame = encode_request(in);
  frame.push_back(0);  // one trailing byte after a valid payload
  FrameHeader h;
  ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
  WireRequest out;
  std::string err;
  EXPECT_FALSE(decode_request_payload(h.type, h.version, h.id,
                                      frame.data() + kHeaderSize,
                                      frame.size() - kHeaderSize, &out, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;

  // Kernel byte out of range in a Solve payload.
  WireRequest sv;
  sv.id = 2;
  sv.payload = serve::SolveSpec{};
  auto sf = encode_request(sv);
  // v2 payload layout: [prio 4][deadline 4][flags 1][n 8][seed 8][block 8]
  // [kernel 1]... (no trace ids here: the flags byte is 0).
  sf[kHeaderSize + 4 + 4 + 1 + 8 + 8 + 8] = 0x7F;
  ASSERT_EQ(parse_header(sf.data(), sf.size(), &h), HeaderParse::Ok);
  EXPECT_FALSE(decode_request_payload(h.type, h.version, h.id,
                                      sf.data() + kHeaderSize,
                                      sf.size() - kHeaderSize, &out, &err));
  EXPECT_NE(err.find("kernel"), std::string::npos) << err;

  // Status code out of range in a Result payload.
  WireResponse wr;
  wr.id = 3;
  auto rf = encode_response(wr);
  rf[kHeaderSize] = 0xFF;
  rf[kHeaderSize + 1] = 0xFF;
  ASSERT_EQ(parse_header(rf.data(), rf.size(), &h), HeaderParse::Ok);
  WireResponse rout;
  EXPECT_FALSE(decode_response_payload(h.id, rf.data() + kHeaderSize,
                                       rf.size() - kHeaderSize, &rout, &err));
}

TEST(Protocol, SolveSemiringTagRoundTripsForEveryValue) {
  for (std::uint8_t sr = 0; sr < kSemiringCount; ++sr) {
    WireRequest in;
    in.id = 40 + sr;
    serve::SolveSpec s;
    s.n = 64;
    s.seed = 9;
    s.block_side = 16;
    s.semiring = static_cast<SemiringId>(sr);
    in.payload = s;
    const auto frame = encode_request(in);
    FrameHeader h;
    ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
    WireRequest out;
    std::string err;
    ASSERT_TRUE(decode_request_payload(h.type, h.version, h.id,
                                       frame.data() + kHeaderSize, h.len, &out,
                                       &err))
        << semiring_name(static_cast<SemiringId>(sr)) << ": " << err;
    EXPECT_EQ(std::get<serve::SolveSpec>(out.payload).semiring,
              static_cast<SemiringId>(sr));
  }
}

TEST(Protocol, MinPlusSolveFramesOmitTheSemiringTag) {
  // The tag is a trailing optional: min-plus (the default) encodes without
  // it, keeping frames byte-identical to the pre-semiring layout so old
  // decoders keep working; any other semiring appends exactly one byte.
  WireRequest w;
  w.id = 7;
  serve::SolveSpec s;
  s.n = 96;
  s.seed = 3;
  s.block_side = 32;
  w.payload = s;
  const auto plain = encode_request(w);
  s.semiring = SemiringId::Counting;
  w.payload = s;
  const auto tagged = encode_request(w);
  EXPECT_EQ(tagged.size(), plain.size() + 1);
  EXPECT_EQ(tagged.back(), static_cast<std::uint8_t>(SemiringId::Counting));

  // And a tag-free frame (an old client) decodes to min-plus.
  FrameHeader h;
  ASSERT_EQ(parse_header(plain.data(), plain.size(), &h), HeaderParse::Ok);
  WireRequest out;
  std::string err;
  ASSERT_TRUE(decode_request_payload(h.type, h.version, h.id,
                                     plain.data() + kHeaderSize, h.len, &out,
                                     &err))
      << err;
  EXPECT_EQ(std::get<serve::SolveSpec>(out.payload).semiring,
            SemiringId::MinPlus);
}

TEST(Protocol, SemiringByteOutOfRangeFailsDecode) {
  WireRequest w;
  w.id = 8;
  serve::SolveSpec s;
  s.n = 48;
  s.block_side = 8;
  s.semiring = SemiringId::MaxPlus;
  w.payload = s;
  auto frame = encode_request(w);
  frame.back() = 0x2A;  // the tag is the last payload byte; 42 is no semiring
  FrameHeader h;
  ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
  WireRequest out;
  std::string err;
  EXPECT_FALSE(decode_request_payload(h.type, h.version, h.id,
                                      frame.data() + kHeaderSize,
                                      frame.size() - kHeaderSize, &out, &err));
  EXPECT_NE(err.find("semiring"), std::string::npos) << err;
}

// --- tenant tag (mirrors the semiring-tag suite: optional, default-
// omitted, range-checked, truncation-safe) --------------------------------

TEST(Protocol, TenantTagRoundTripsForBoundaryValues) {
  for (const std::uint16_t tenant : {1, 42, 255}) {
    WireRequest in;
    in.id = 100 + tenant;
    in.priority = 3;
    in.deadline_ms = 250;
    in.tenant = tenant;
    in.payload = serve::ChainSpec{16, 5};
    const auto frame = encode_request(in);
    FrameHeader h;
    ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
    WireRequest out;
    std::string err;
    ASSERT_TRUE(decode_request_payload(h.type, h.version, h.id,
                                       frame.data() + kHeaderSize, h.len,
                                       &out, &err))
        << "tenant " << tenant << ": " << err;
    EXPECT_EQ(out.tenant, tenant);
    EXPECT_EQ(out.priority, in.priority);
    EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  }
}

TEST(Protocol, DefaultTenantFramesOmitTheTenantTag) {
  // Tenant 0 (every untagged/legacy client) is never encoded: the frame
  // must be byte-identical to the pre-tenant layout, and a tagged frame
  // costs exactly two extra bytes (the u16 after the trace block).
  WireRequest w;
  w.id = 7;
  w.payload = serve::ChainSpec{16, 5};
  const auto plain = encode_request(w);
  w.tenant = 9;
  const auto tagged = encode_request(w);
  EXPECT_EQ(tagged.size(), plain.size() + 2);

  FrameHeader h;
  ASSERT_EQ(parse_header(plain.data(), plain.size(), &h), HeaderParse::Ok);
  WireRequest out;
  std::string err;
  ASSERT_TRUE(decode_request_payload(h.type, h.version, h.id,
                                     plain.data() + kHeaderSize, h.len, &out,
                                     &err))
      << err;
  EXPECT_EQ(out.tenant, 0);

  // A v1 frame (no flags byte at all) also lands on the default tenant.
  const auto v1 = encode_request(w, /*version=*/1);
  ASSERT_EQ(parse_header(v1.data(), v1.size(), &h), HeaderParse::Ok);
  ASSERT_TRUE(decode_request_payload(h.type, h.version, h.id,
                                     v1.data() + kHeaderSize, h.len, &out,
                                     &err))
      << err;
  EXPECT_EQ(out.tenant, 0);
}

TEST(Protocol, TenantIdOutOfRangeFailsDecode) {
  WireRequest w;
  w.id = 8;
  w.tenant = 5;
  w.payload = serve::ChainSpec{16, 5};
  auto frame = encode_request(w);
  // No trace context, so the tenant u16 (little-endian) sits right after
  // the common prefix: [prio 4][deadline 4][flags 1].
  const std::size_t off = kHeaderSize + 4 + 4 + 1;
  frame[off] = 0xFF;
  frame[off + 1] = 0xFF;  // 65535 >= kMaxTenants
  FrameHeader h;
  ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
  WireRequest out;
  std::string err;
  EXPECT_FALSE(decode_request_payload(h.type, h.version, h.id,
                                      frame.data() + kHeaderSize, h.len, &out,
                                      &err));
  EXPECT_NE(err.find("tenant"), std::string::npos) << err;
}

TEST(Protocol, TenantFlagWithZeroTenantFailsDecode) {
  // Flag bit set but id zero is unrepresentable by the encoder — a frame
  // like that is corrupt, not "default tenant".
  WireRequest w;
  w.id = 9;
  w.tenant = 5;
  w.payload = serve::ChainSpec{16, 5};
  auto frame = encode_request(w);
  const std::size_t off = kHeaderSize + 4 + 4 + 1;
  frame[off] = 0;
  frame[off + 1] = 0;
  FrameHeader h;
  ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
  WireRequest out;
  std::string err;
  EXPECT_FALSE(decode_request_payload(h.type, h.version, h.id,
                                      frame.data() + kHeaderSize, h.len, &out,
                                      &err));
  EXPECT_NE(err.find("tenant"), std::string::npos) << err;
}

TEST(Protocol, TenantTaggedFrameTruncationFailsCleanly) {
  // Unlike the semiring tag the tenant u16 is NOT trailing — it sits in
  // the request prefix — so every truncation of a tenant-tagged frame
  // must fail decode (there is no "valid shorter frame" to fall back to).
  WireRequest w;
  w.id = 10;
  w.tenant = 200;
  w.trace.trace_id = 77;  // trace + tenant together: the full v2 prefix
  w.trace.parent_span_id = 5;
  w.payload = serve::ChainSpec{16, 5};
  const auto frame = encode_request(w);
  FrameHeader h;
  ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
  for (std::size_t cut = 0; cut < h.len; ++cut) {
    WireRequest out;
    std::string err;
    EXPECT_FALSE(decode_request_payload(h.type, h.version, h.id,
                                        frame.data() + kHeaderSize, cut, &out,
                                        &err))
        << "cut " << cut << "/" << h.len;
  }
}

TEST(Protocol, BadMagicIsDetected) {
  auto frame = encode_ping(1);
  frame[0] ^= 0x5A;
  FrameHeader h;
  EXPECT_EQ(parse_header(frame.data(), frame.size(), &h),
            HeaderParse::BadMagic);
}

TEST(Protocol, StatusWireCodesAreFrozen) {
  // Appended-only: these exact values are the compatibility contract.
  EXPECT_EQ(wire_status(serve::Status::Ok), 0);
  EXPECT_EQ(wire_status(serve::Status::OkCached), 1);
  EXPECT_EQ(wire_status(serve::Status::Rejected), 2);
  EXPECT_EQ(wire_status(serve::Status::Shed), 3);
  EXPECT_EQ(wire_status(serve::Status::Expired), 4);
  EXPECT_EQ(wire_status(serve::Status::Cancelled), 5);
  EXPECT_EQ(wire_status(serve::Status::Error), 6);
  EXPECT_EQ(wire_status(serve::Status::Degraded), 7);
  EXPECT_EQ(wire_status(serve::Status::RetryAfter), 8);
  serve::Status s;
  EXPECT_TRUE(status_from_wire(8, &s));
  EXPECT_FALSE(status_from_wire(9, &s));
}

// --- version compatibility (v1 <-> v2) -------------------------------------

TEST(Protocol, LegacyV1FramesDecodeWithoutTraceContext) {
  // A new client can still emit v1 frames, and a new decoder accepts
  // them: same payload bytes as before the version bump, no trace field.
  SplitMix64 rng(404);
  for (int kind = 0; kind < 5; ++kind) {
    WireRequest in = random_request(rng, kind);
    in.trace = {};  // v1 cannot carry a context
    const auto frame = encode_request(in, /*version=*/1);
    FrameHeader h;
    ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
    EXPECT_EQ(h.version, 1u);
    WireRequest out;
    std::string err;
    ASSERT_TRUE(decode_request_payload(h.type, h.version, h.id,
                                       frame.data() + kHeaderSize, h.len,
                                       &out, &err))
        << "kind " << kind << ": " << err;
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.priority, in.priority);
    EXPECT_EQ(out.deadline_ms, in.deadline_ms);
    EXPECT_EQ(out.trace.trace_id, 0u);
    EXPECT_FALSE(out.trace.sampled);
    ASSERT_EQ(out.payload.index(), in.payload.index());
  }
}

TEST(Protocol, V1AndV2EncodingsDifferOnlyByTheTracePrefix) {
  // Byte-level contract: a v2 frame without a context is exactly the v1
  // frame plus one zero flags byte; with a context it adds 17 bytes.
  WireRequest w;
  w.id = 12;
  w.payload = serve::ChainSpec{16, 5};
  const auto v1 = encode_request(w, 1);
  const auto v2 = encode_request(w, 2);
  EXPECT_EQ(v2.size(), v1.size() + 1);
  w.trace.trace_id = 0xABCD;
  w.trace.parent_span_id = 0xEF01;
  w.trace.sampled = true;
  const auto v2t = encode_request(w, 2);
  EXPECT_EQ(v2t.size(), v1.size() + 1 + 16);
}

TEST(Protocol, UnknownTraceFlagBitsAreRejected) {
  WireRequest w;
  w.id = 9;
  w.payload = serve::ChainSpec{8, 1};
  auto frame = encode_request(w);  // v2, flags byte = 0
  frame[kHeaderSize + 4 + 4] |= 0x40;  // set a reserved flag bit
  FrameHeader h;
  ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
  WireRequest out;
  std::string err;
  EXPECT_FALSE(decode_request_payload(h.type, h.version, h.id,
                                      frame.data() + kHeaderSize, h.len, &out,
                                      &err));
  EXPECT_NE(err.find("flag"), std::string::npos) << err;
}

TEST(Protocol, StatsResponseRoundTripsMetricsBreakersAndQueueDepth) {
  WireStats in;
  in.queue_depth = 17;
  in.metrics.counters = {{"net.accepted", 3}, {"serve.status.ok", 240}};
  in.metrics.gauges = {{"net.active_conns", 2.5}};
  obs::HistogramSnapshot h;
  h.count = 100;
  h.sum = 5000;
  h.min = 10;
  h.max = 300;
  h.buckets[4] = 60;   // [16,32)
  h.buckets[8] = 40;   // [256,512)
  in.metrics.histograms = {{"serve.total_ns", h}};
  in.breakers.push_back({"blocked-serial", 1, 0.25, 1500});

  const auto frame = encode_stats_response(5, in);
  FrameHeader fh;
  ASSERT_EQ(parse_header(frame.data(), frame.size(), &fh), HeaderParse::Ok);
  EXPECT_EQ(fh.type, MsgType::StatsResponse);
  WireStats out;
  std::string err;
  ASSERT_TRUE(decode_stats_response(frame.data() + kHeaderSize, fh.len, &out,
                                    &err))
      << err;
  EXPECT_EQ(out.queue_depth, 17);
  ASSERT_EQ(out.metrics.counters.size(), 2u);
  EXPECT_EQ(out.metrics.counters[1].first, "serve.status.ok");
  EXPECT_EQ(out.metrics.counters[1].second, 240);
  ASSERT_EQ(out.metrics.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(out.metrics.gauges[0].second, 2.5);
  ASSERT_EQ(out.metrics.histograms.size(), 1u);
  const obs::HistogramSnapshot& oh = out.metrics.histograms[0].second;
  EXPECT_EQ(oh.count, 100);
  EXPECT_EQ(oh.sum, 5000);
  EXPECT_EQ(oh.min, 10);
  EXPECT_EQ(oh.max, 300);
  EXPECT_EQ(oh.buckets[4], 60);
  EXPECT_EQ(oh.buckets[8], 40);
  // Quantile math is shared with the live histogram, so the decoded
  // snapshot computes the same interpolated values the server would.
  EXPECT_DOUBLE_EQ(oh.quantile(0.5), h.quantile(0.5));
  ASSERT_EQ(out.breakers.size(), 1u);
  EXPECT_EQ(out.breakers[0].name, "blocked-serial");
  EXPECT_EQ(out.breakers[0].state, 1);
  EXPECT_DOUBLE_EQ(out.breakers[0].failure_rate, 0.25);
  EXPECT_EQ(out.breakers[0].retry_after_ms, 1500);

  // Truncation at every byte fails cleanly, never reads out of bounds.
  for (std::size_t cut = 0; cut < fh.len; ++cut) {
    WireStats trunc;
    EXPECT_FALSE(decode_stats_response(frame.data() + kHeaderSize, cut,
                                       &trunc, &err))
        << "cut " << cut;
  }
}

// --- end-to-end over loopback ----------------------------------------------

struct ServerFixture {
  explicit ServerFixture(ServerOptions no = {},
                         serve::ServiceOptions so = small_service()) {
    no.port = 0;  // ephemeral
    server = std::make_unique<NpdpServer>(no, so);
    std::string err;
    EXPECT_TRUE(server->start(&err)) << err;
  }
  static serve::ServiceOptions small_service() {
    serve::ServiceOptions so;
    so.workers = 2;
    so.queue_capacity = 64;
    return so;
  }
  NpdpClient connect() {
    NpdpClient c;
    std::string err;
    EXPECT_TRUE(c.connect("127.0.0.1", server->port(), &err)) << err;
    return c;
  }
  std::unique_ptr<NpdpServer> server;
};

WireRequest chain_req(std::uint64_t id, index_t n, std::uint64_t seed,
                      std::uint32_t deadline_ms = 0) {
  WireRequest w;
  w.id = id;
  w.deadline_ms = deadline_ms;
  w.payload = serve::ChainSpec{n, seed};
  return w;
}

TEST(NetServer, AllRequestKindsRoundTripWithCorrectValues) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  std::string err;
  Reply rep;

  // chain: value must equal the textbook reference on the same dims.
  {
    const serve::ChainSpec spec{24, 11};
    const auto dims = serve::chain_dims(spec);
    const auto ref = solve_matrix_chain_reference<float>(dims);
    WireRequest w = chain_req(1, spec.n, spec.seed);
    ASSERT_EQ(cli.call(w, &rep, 10000, &err), RecvStatus::Ok) << err;
    ASSERT_EQ(rep.kind, Reply::Kind::Result);
    EXPECT_EQ(rep.result.status, serve::Status::Ok);
    EXPECT_FLOAT_EQ(float(rep.result.value), float(ref.cost));
    EXPECT_FALSE(rep.result.backend.empty());
  }
  // bst: ditto against Knuth's reference.
  {
    const serve::BstSpec spec{20, 13};
    const auto data = serve::bst_data(spec);
    const float ref = solve_optimal_bst_reference<float>(data);
    WireRequest w;
    w.id = 2;
    w.payload = spec;
    ASSERT_EQ(cli.call(w, &rep, 10000, &err), RecvStatus::Ok) << err;
    EXPECT_EQ(rep.result.status, serve::Status::Ok);
    EXPECT_NEAR(float(rep.result.value), ref, 1e-3f);
  }
  // solve / fold / parse: success statuses end to end.
  {
    WireRequest w;
    w.id = 3;
    serve::SolveSpec s;
    s.n = 64;
    s.block_side = 16;
    w.payload = s;
    ASSERT_EQ(cli.call(w, &rep, 10000, &err), RecvStatus::Ok) << err;
    EXPECT_EQ(rep.result.status, serve::Status::Ok);
  }
  {
    WireRequest w;
    w.id = 4;
    serve::FoldSpec f;
    f.random_n = 40;
    w.payload = f;
    ASSERT_EQ(cli.call(w, &rep, 10000, &err), RecvStatus::Ok) << err;
    EXPECT_EQ(rep.result.status, serve::Status::Ok);
    EXPECT_FALSE(rep.result.detail.empty());  // dot-bracket structure
  }
  {
    WireRequest w;
    w.id = 5;
    serve::ParseSpec p;
    p.text = "(()())";
    w.payload = p;
    ASSERT_EQ(cli.call(w, &rep, 10000, &err), RecvStatus::Ok) << err;
    EXPECT_EQ(rep.result.status, serve::Status::Ok);
  }
  // Repeat of the chain request: served from cache, same value.
  {
    WireRequest w = chain_req(6, 24, 11);
    ASSERT_EQ(cli.call(w, &rep, 10000, &err), RecvStatus::Ok) << err;
    EXPECT_EQ(rep.result.status, serve::Status::OkCached);
  }
  // ping + stats on the same connection.
  ASSERT_EQ(cli.ping(99, 5000, &err), RecvStatus::Ok) << err;
  std::string json;
  ASSERT_EQ(cli.stats(&json, 5000, &err), RecvStatus::Ok) << err;
  JsonValue root;
  ASSERT_TRUE(json_parse(json, root, &err)) << err << "\n" << json;
  ASSERT_TRUE(root.is_object());
  EXPECT_TRUE(root.has("net"));
  EXPECT_TRUE(root.has("serve"));
  EXPECT_GE(root.at("net").at("frames_in").number, 6.0);
}

TEST(NetServer, VersionMismatchGetsTypedErrorThenDisconnect) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  auto frame = encode_ping(5);
  frame[4] = 0x63;  // version: 99
  frame[5] = 0x00;
  std::string err;
  ASSERT_TRUE(cli.send_frame(frame, &err)) << err;
  Reply rep;
  ASSERT_EQ(cli.recv_reply(&rep, 5000, &err), RecvStatus::Ok) << err;
  ASSERT_EQ(rep.kind, Reply::Kind::ProtoError);
  EXPECT_EQ(rep.code, ProtoErrorCode::BadVersion);
  EXPECT_EQ(rep.id, 5u);
  // The server closes after flushing the error: next read is EOF.
  EXPECT_EQ(cli.recv_reply(&rep, 5000, &err), RecvStatus::Closed);
  // And the server is still accepting fresh connections.
  NpdpClient again = fx.connect();
  EXPECT_EQ(again.ping(1, 5000, &err), RecvStatus::Ok) << err;
}

TEST(NetServer, MalformedPayloadGetsTypedErrorAndConnectionSurvives) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  // A Chain frame whose payload is cut mid-field (header length honest,
  // so the stream stays synchronized — only the payload is garbage).
  std::vector<std::uint8_t> frame;
  encode_header(frame, MsgType::Chain, 31, 6);
  for (int i = 0; i < 6; ++i) frame.push_back(0xAB);
  std::string err;
  ASSERT_TRUE(cli.send_frame(frame, &err)) << err;
  Reply rep;
  ASSERT_EQ(cli.recv_reply(&rep, 5000, &err), RecvStatus::Ok) << err;
  ASSERT_EQ(rep.kind, Reply::Kind::ProtoError);
  EXPECT_EQ(rep.code, ProtoErrorCode::BadPayload);
  EXPECT_EQ(rep.id, 31u);
  // Same connection keeps working.
  ASSERT_EQ(cli.call(chain_req(32, 8, 1), &rep, 10000, &err), RecvStatus::Ok)
      << err;
  EXPECT_EQ(rep.result.status, serve::Status::Ok);
  EXPECT_GE(fx.server->stats().frames_bad, 1u);
}

TEST(NetServer, UnknownSemiringTagGetsTypedErrorAndConnectionSurvives) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  WireRequest in;
  in.id = 91;
  serve::SolveSpec s;
  s.n = 32;
  s.block_side = 8;
  s.semiring = SemiringId::MaxPlus;
  in.payload = s;
  auto frame = encode_request(in);
  frame.back() = 0x2A;  // clobber the trailing semiring tag
  std::string err;
  ASSERT_TRUE(cli.send_frame(frame, &err)) << err;
  Reply rep;
  ASSERT_EQ(cli.recv_reply(&rep, 5000, &err), RecvStatus::Ok) << err;
  ASSERT_EQ(rep.kind, Reply::Kind::ProtoError);
  EXPECT_EQ(rep.code, ProtoErrorCode::BadPayload);
  EXPECT_EQ(rep.id, 91u);
  // A correctly tagged solve on the same connection still works.
  WireRequest ok;
  ok.id = 92;
  ok.payload = s;
  ASSERT_EQ(cli.call(ok, &rep, 10000, &err), RecvStatus::Ok) << err;
  ASSERT_EQ(rep.kind, Reply::Kind::Result);
  EXPECT_EQ(rep.result.status, serve::Status::Ok);
}

TEST(NetServer, SolveRunsEverySemiringOverTheWire) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  std::string err;
  Reply rep;
  for (std::uint8_t sr = 0; sr < kSemiringCount; ++sr) {
    WireRequest w;
    w.id = 300 + sr;
    serve::SolveSpec s;
    s.seed = 5;
    s.block_side = 8;
    s.semiring = static_cast<SemiringId>(sr);
    // Counting grows ~3 bits per span step; keep n small enough that the
    // float table stays finite.
    s.n = s.semiring == SemiringId::Counting ? 12 : 48;
    w.payload = s;
    ASSERT_EQ(cli.call(w, &rep, 10000, &err), RecvStatus::Ok)
        << semiring_name(s.semiring) << ": " << err;
    ASSERT_EQ(rep.kind, Reply::Kind::Result);
    EXPECT_EQ(rep.result.status, serve::Status::Ok)
        << semiring_name(s.semiring);
  }
}

TEST(NetServer, UnknownTypeGetsTypedErrorAndConnectionSurvives) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  std::vector<std::uint8_t> frame;
  encode_header(frame, static_cast<MsgType>(77), 41, 0);
  std::string err;
  ASSERT_TRUE(cli.send_frame(frame, &err)) << err;
  Reply rep;
  ASSERT_EQ(cli.recv_reply(&rep, 5000, &err), RecvStatus::Ok) << err;
  ASSERT_EQ(rep.kind, Reply::Kind::ProtoError);
  EXPECT_EQ(rep.code, ProtoErrorCode::UnknownType);
  ASSERT_EQ(cli.ping(42, 5000, &err), RecvStatus::Ok) << err;
}

TEST(NetServer, BadMagicDisconnectsImmediately) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  const std::vector<std::uint8_t> garbage(64, 0x5A);
  std::string err;
  ASSERT_TRUE(cli.send_frame(garbage, &err)) << err;
  Reply rep;
  EXPECT_EQ(cli.recv_reply(&rep, 5000, &err), RecvStatus::Closed);
  NpdpClient again = fx.connect();
  EXPECT_EQ(again.ping(1, 5000, &err), RecvStatus::Ok) << err;
}

TEST(NetServer, OversizedFrameIsRefusedWithTypedError) {
  ServerOptions no;
  no.max_frame = 4096;
  ServerFixture fx(no);
  NpdpClient cli = fx.connect();
  // Header claims 1 MiB payload; the server must refuse before buffering.
  std::vector<std::uint8_t> frame;
  encode_header(frame, MsgType::Chain, 51, 1u << 20);
  std::string err;
  ASSERT_TRUE(cli.send_frame(frame, &err)) << err;
  Reply rep;
  ASSERT_EQ(cli.recv_reply(&rep, 5000, &err), RecvStatus::Ok) << err;
  ASSERT_EQ(rep.kind, Reply::Kind::ProtoError);
  EXPECT_EQ(rep.code, ProtoErrorCode::FrameTooLarge);
  EXPECT_EQ(rep.id, 51u);
  EXPECT_EQ(cli.recv_reply(&rep, 5000, &err), RecvStatus::Closed);
  NpdpClient again = fx.connect();
  EXPECT_EQ(again.ping(1, 5000, &err), RecvStatus::Ok) << err;
}

TEST(NetServer, MidRequestDisconnectLeavesServerHealthy) {
  ServerFixture fx;
  {
    NpdpClient cli = fx.connect();
    std::string err;
    WireRequest w;
    w.id = 61;
    serve::SolveSpec s;
    s.n = 320;
    s.block_side = 32;
    w.payload = s;
    ASSERT_TRUE(cli.send_frame(encode_request(w), &err)) << err;
    // Wait for the request to be in flight, then kill the connection
    // deterministically with unsynchronizable garbage (bad magic closes
    // immediately) while the solve is still running.
    const auto submit_deadline =
        std::chrono::steady_clock::now() + milliseconds(5000);
    while (fx.server->stats().frames_in < 1 &&
           std::chrono::steady_clock::now() < submit_deadline)
      std::this_thread::sleep_for(milliseconds(1));
    ASSERT_GE(fx.server->stats().frames_in, 1u);
    ASSERT_TRUE(cli.send_frame(std::vector<std::uint8_t>(32, 0x5A), &err))
        << err;
  }
  // The orphaned response must be dropped (counted), never crash, and the
  // server must keep answering new clients.
  NpdpClient cli = fx.connect();
  std::string err;
  Reply rep;
  ASSERT_EQ(cli.call(chain_req(62, 8, 2), &rep, 10000, &err), RecvStatus::Ok)
      << err;
  EXPECT_EQ(rep.result.status, serve::Status::Ok);
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (fx.server->stats().dropped_responses < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(milliseconds(10));
  EXPECT_GE(fx.server->stats().dropped_responses, 1u);
}

TEST(NetServer, HalfCloseStillDrainsBufferedRequests) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  std::string err;
  // Pipeline a few requests and FIN the write side in the same breath:
  // the server must honour frames that arrived before the EOF and flush
  // every reply before closing.
  constexpr int kReqs = 4;
  for (int i = 0; i < kReqs; ++i)
    ASSERT_TRUE(cli.send_frame(
        encode_request(chain_req(200 + std::uint64_t(i), 10 + i, 5)), &err))
        << err;
  ASSERT_EQ(::shutdown(cli.fd(), SHUT_WR), 0);
  int results = 0;
  for (;;) {
    Reply rep;
    const RecvStatus rs = cli.recv_reply(&rep, 10000, &err);
    if (rs == RecvStatus::Closed) break;
    ASSERT_EQ(rs, RecvStatus::Ok) << err;
    ASSERT_EQ(rep.kind, Reply::Kind::Result);
    EXPECT_EQ(rep.result.status, serve::Status::Ok);
    ++results;
  }
  EXPECT_EQ(results, kReqs);
}

TEST(NetServer, DeadlineExceededReturnsExpiredOnTheWireNotDisconnect) {
  serve::ServiceOptions so;
  so.workers = 1;  // one worker, so the slow solve blocks the queue
  so.cache_capacity = 0;
  ServerFixture fx({}, so);
  NpdpClient cli = fx.connect();
  std::string err;
  // Occupy the only worker with a long solve...
  WireRequest slow;
  slow.id = 71;
  serve::SolveSpec s;
  s.n = 640;
  s.block_side = 32;
  s.kernel = KernelKind::Scalar;
  slow.payload = s;
  ASSERT_TRUE(cli.send_frame(encode_request(slow), &err)) << err;
  // ...then a request whose 1 ms deadline lapses while queued.
  ASSERT_TRUE(cli.send_frame(encode_request(chain_req(72, 64, 3, 1)), &err))
      << err;
  bool saw_expired = false, saw_slow = false;
  for (int i = 0; i < 2; ++i) {
    Reply rep;
    ASSERT_EQ(cli.recv_reply(&rep, 30000, &err), RecvStatus::Ok) << err;
    ASSERT_EQ(rep.kind, Reply::Kind::Result);
    if (rep.id == 72) {
      saw_expired = rep.result.status == serve::Status::Expired ||
                    rep.result.status == serve::Status::Cancelled;
      EXPECT_TRUE(saw_expired)
          << "status " << serve::status_name(rep.result.status);
    } else {
      saw_slow = true;
    }
  }
  EXPECT_TRUE(saw_expired);
  EXPECT_TRUE(saw_slow);
  // Still a healthy connection afterwards.
  EXPECT_EQ(cli.ping(73, 5000, &err), RecvStatus::Ok) << err;
}

TEST(NetServer, GracefulDrainAnswersEveryPipelinedRequest) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  std::string err;
  constexpr int kPipelined = 32;
  for (int i = 0; i < kPipelined; ++i)
    ASSERT_TRUE(cli.send_frame(
        encode_request(chain_req(100 + std::uint64_t(i), 16 + i % 8, 9)),
        &err))
        << err;
  // Wait until every frame has been parsed and submitted (bytes still
  // sitting unread in the kernel at shutdown are legitimately droppable;
  // the drain contract covers admitted work), then drain.
  const auto parse_deadline =
      std::chrono::steady_clock::now() + milliseconds(5000);
  while (fx.server->stats().frames_in < std::uint64_t(kPipelined) &&
         std::chrono::steady_clock::now() < parse_deadline)
    std::this_thread::sleep_for(milliseconds(2));
  ASSERT_GE(fx.server->stats().frames_in, std::uint64_t(kPipelined));
  fx.server->stop();
  int results = 0;
  for (;;) {
    Reply rep;
    const RecvStatus rs = cli.recv_reply(&rep, 10000, &err);
    if (rs == RecvStatus::Closed) break;
    ASSERT_EQ(rs, RecvStatus::Ok) << err;
    ASSERT_EQ(rep.kind, Reply::Kind::Result);
    ++results;
  }
  // Every pipelined request got a terminal response before the close —
  // possibly Rejected (admission raced the stop), but never silence.
  EXPECT_EQ(results, kPipelined);
}

TEST(NetServer, IdleConnectionsAreSweptAfterTimeout) {
  ServerOptions no;
  no.idle_timeout_ms = 100;
  ServerFixture fx(no);
  NpdpClient cli = fx.connect();
  std::string err;
  Reply rep;
  const auto t0 = std::chrono::steady_clock::now();
  // A slow-loris connection that never completes a frame gets EOF'd.
  const RecvStatus rs = cli.recv_reply(&rep, 5000, &err);
  EXPECT_EQ(rs, RecvStatus::Closed);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(4000));
  // An active connection is unaffected by the sweep cadence.
  NpdpClient busy = fx.connect();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(busy.ping(std::uint64_t(i), 5000, &err), RecvStatus::Ok) << err;
    std::this_thread::sleep_for(milliseconds(40));
  }
}

TEST(NetServer, PartialFramesAcrossWritesReassemble) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  std::string err;
  const auto frame = encode_request(chain_req(81, 12, 4));
  // Dribble the frame one byte at a time; the reactor must reassemble.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(cli.send_frame({frame[i]}, &err)) << err;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Reply rep;
  ASSERT_EQ(cli.recv_reply(&rep, 10000, &err), RecvStatus::Ok) << err;
  EXPECT_EQ(rep.id, 81u);
  EXPECT_EQ(rep.result.status, serve::Status::Ok);
}

TEST(NetServer, LegacyV1ClientRoundTripsAgainstNewServer) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  std::string err;
  // A v1 frame (no trace bytes) must be served exactly like before the
  // version bump; the response format is identical across versions.
  ASSERT_TRUE(
      cli.send_frame(encode_request(chain_req(91, 12, 6), /*version=*/1),
                     &err))
      << err;
  Reply rep;
  ASSERT_EQ(cli.recv_reply(&rep, 10000, &err), RecvStatus::Ok) << err;
  ASSERT_EQ(rep.kind, Reply::Kind::Result);
  EXPECT_EQ(rep.id, 91u);
  EXPECT_EQ(rep.result.status, serve::Status::Ok);
  // And v1/v2 frames interleave freely on one connection.
  ASSERT_EQ(cli.call(chain_req(92, 13, 6), &rep, 10000, &err), RecvStatus::Ok)
      << err;
  EXPECT_EQ(rep.result.status, serve::Status::Ok);
}

TEST(NetServer, StatsSnapshotFrameExposesLiveRegistry) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  std::string err;
  Reply rep;
  ASSERT_EQ(cli.call(chain_req(95, 20, 8), &rep, 10000, &err), RecvStatus::Ok)
      << err;
  ASSERT_EQ(rep.result.status, serve::Status::Ok);

  WireStats ws;
  ASSERT_EQ(cli.stats_snapshot(&ws, 5000, &err), RecvStatus::Ok) << err;
  // The registry is process-global, so exact counts depend on test order;
  // presence and monotonicity are the contract.
  EXPECT_GE(ws.metrics.counter_or("serve.status.ok", 0), 1);
  EXPECT_GE(ws.metrics.counter_or("net.accepted", 0), 1);
  const obs::HistogramSnapshot* th =
      ws.metrics.find_histogram("serve.total_ns");
  ASSERT_NE(th, nullptr);
  EXPECT_GE(th->count, 1);
  EXPECT_GT(th->quantile(0.5), 0.0);
  EXPECT_GE(ws.queue_depth, 0);
  // Counter names arrive sorted (snapshot ordering is stable).
  for (std::size_t i = 1; i < ws.metrics.counters.size(); ++i)
    EXPECT_LT(ws.metrics.counters[i - 1].first, ws.metrics.counters[i].first);
}

TEST(NetServer, SampledTraceContextYieldsCorrelatedServerSpans) {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.start(1 << 12);
  std::uint64_t trace_id;
  {
    ServerFixture fx;
    NpdpClient cli = fx.connect();
    std::string err;
    WireRequest w = chain_req(97, 18, 9);
    w.trace = obs::make_root_context(/*sampled=*/true);
    trace_id = w.trace.trace_id;
    ASSERT_NE(trace_id, 0u);
    Reply rep;
    ASSERT_EQ(cli.call(w, &rep, 10000, &err), RecvStatus::Ok) << err;
    EXPECT_EQ(rep.result.status, serve::Status::Ok);

    // An unsampled context must NOT record spans.
    WireRequest quiet = chain_req(98, 19, 9);
    quiet.trace = obs::make_root_context(/*sampled=*/false);
    ASSERT_EQ(cli.call(quiet, &rep, 10000, &err), RecvStatus::Ok) << err;
  }  // server drains before we read the rings
  tr.stop();
  bool saw_decode = false, saw_queue = false, saw_solve = false,
       saw_respond = false;
  for (const auto& t : tr.snapshot()) {
    for (const auto& ev : t.events) {
      if (std::strcmp(ev.cat, "req") != 0) continue;
      EXPECT_NE(ev.a0, std::int64_t(0)) << "req event without trace id";
      if (ev.a0 != std::int64_t(trace_id)) continue;
      if (std::strcmp(ev.name, "decode") == 0) saw_decode = true;
      if (std::strcmp(ev.name, "queue") == 0) saw_queue = true;
      if (std::strcmp(ev.name, "solve") == 0) saw_solve = true;
      if (std::strcmp(ev.name, "respond") == 0) {
        saw_respond = true;
        EXPECT_EQ(ev.a1, std::int64_t(wire_status(serve::Status::Ok)));
      }
    }
  }
  EXPECT_TRUE(saw_decode);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_respond);
}

TEST(NetLoadgen, ClosedLoopLoopbackRunsClean) {
  ServerFixture fx;
  LoadGenOptions lo;
  lo.port = fx.server->port();
  lo.connections = 2;
  lo.duration_ms = 300;
  lo.mix = "mix";
  lo.size = 16;
  LoadGenResult r;
  std::string err;
  ASSERT_TRUE(run_loadgen(lo, &r, &err)) << err;
  EXPECT_GT(r.sent, 0u);
  EXPECT_TRUE(r.clean()) << r.proto_errors << " proto / "
                         << r.transport_errors << " transport errors, "
                         << r.replies << "/" << r.sent << " replies";
  EXPECT_EQ(r.ok + r.cached + r.degraded, r.replies);
  EXPECT_EQ(r.latencies_ms.size(), r.replies);
  EXPECT_GT(latency_percentile(r.latencies_ms, 0.99), 0.0);
}

TEST(NetLoadgen, TraceOriginationRecordsOneClientSpanPerSampledReply) {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.start(1 << 14);
  LoadGenResult r;
  {
    ServerFixture fx;
    LoadGenOptions lo;
    lo.port = fx.server->port();
    lo.connections = 2;
    lo.duration_ms = 5000;
    lo.max_requests = 20;
    lo.mix = "chain";
    lo.size = 12;
    lo.trace = true;
    lo.trace_sample = 1.0;
    std::string err;
    ASSERT_TRUE(run_loadgen(lo, &r, &err)) << err;
    ASSERT_TRUE(r.clean());
  }
  tr.stop();
  long client_spans = 0;
  std::set<std::int64_t> ids;
  for (const auto& t : tr.snapshot())
    for (const auto& ev : t.events)
      if (std::strcmp(ev.cat, "req") == 0 &&
          std::strcmp(ev.name, "client") == 0) {
        ++client_spans;
        EXPECT_GE(ev.dur_ns, 0);
        ids.insert(ev.a0);
      }
  EXPECT_EQ(client_spans, long(r.replies));
  // Every request got its own trace id.
  EXPECT_EQ(ids.size(), std::size_t(client_spans));
}

TEST(NetLoadgen, OpenLoopRespectsRequestCap) {
  ServerFixture fx;
  LoadGenOptions lo;
  lo.port = fx.server->port();
  lo.connections = 2;
  lo.rate = 2000;
  lo.duration_ms = 2000;
  lo.max_requests = 50;
  lo.mix = "bst";
  lo.size = 12;
  LoadGenResult r;
  std::string err;
  ASSERT_TRUE(run_loadgen(lo, &r, &err)) << err;
  EXPECT_EQ(r.sent, 50u);
  EXPECT_TRUE(r.clean());
}

// --- client reconnect / connect-timeout ------------------------------------

TEST(NetClient, ConnectTimeoutBoundsTheDial) {
  // A local port that was just released: the dial must fail promptly
  // (refused) with an error string, well inside the timeout.
  std::uint16_t dead_port;
  {
    ServerFixture fx;
    dead_port = fx.server->port();
  }
  NpdpClient cli;
  std::string err;
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(cli.connect("127.0.0.1", dead_port, &err, 2000));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(3000));
  EXPECT_FALSE(err.empty());
  // A dial that cannot complete promptly (blackhole address in most
  // environments) must come back within the bound either way, never hang
  // for the kernel default of minutes.
  t0 = std::chrono::steady_clock::now();
  NpdpClient far;
  far.connect("10.255.255.1", 9, &err, 200);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(3000));
}

TEST(NetClient, SendWithoutAutoReconnectReportsReset) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  std::string err;
  cli.close();
  EXPECT_EQ(cli.send_frame2(encode_ping(1), &err), NpdpClient::SendStatus::Reset);
  EXPECT_NE(err.find("not connected"), std::string::npos) << err;
}

TEST(NetClient, AutoReconnectRedialsTheRememberedEndpoint) {
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  cli.set_auto_reconnect(true);
  cli.set_connect_timeout(2000);
  std::string err;
  Reply rep;
  ASSERT_EQ(cli.call(chain_req(1, 10, 2), &rep, 10000, &err), RecvStatus::Ok)
      << err;
  // Drop the connection locally; the next send must re-dial and succeed.
  cli.close();
  ASSERT_FALSE(cli.connected());
  ASSERT_EQ(cli.send_frame2(encode_request(chain_req(2, 11, 2)), &err),
            NpdpClient::SendStatus::Ok)
      << err;
  EXPECT_TRUE(cli.connected());
  ASSERT_EQ(cli.recv_reply(&rep, 10000, &err), RecvStatus::Ok) << err;
  EXPECT_EQ(rep.id, 2u);
  EXPECT_EQ(rep.result.status, serve::Status::Ok);
  // Explicit reconnect() works too.
  cli.close();
  ASSERT_TRUE(cli.reconnect(&err)) << err;
  EXPECT_EQ(cli.ping(3, 5000, &err), RecvStatus::Ok) << err;
}

// --- peer frames (src/dist wire tier) --------------------------------------

TEST(PeerFrames, AllFourKindsRoundTrip) {
  dist::PeerHello in;
  in.rank = 2;
  in.nranks = 5;
  in.config_hash = 0xDEADBEEFCAFEF00Dull;
  in.n = 4096;
  in.block_side = 64;
  in.semiring = 3;
  in.elem_bytes = 8;
  const auto hf = dist::encode_peer_hello(11, in);
  FrameHeader h;
  ASSERT_EQ(parse_header(hf.data(), hf.size(), &h), HeaderParse::Ok);
  EXPECT_EQ(h.type, MsgType::PeerHello);
  EXPECT_EQ(h.version, kVersion);
  EXPECT_TRUE(is_peer_type(h.type));
  EXPECT_FALSE(is_request_type(h.type));
  dist::PeerHello out;
  std::string err;
  ASSERT_TRUE(decode_peer_hello(h.version, hf.data() + kHeaderSize, h.len,
                                &out, &err))
      << err;
  EXPECT_EQ(out.rank, in.rank);
  EXPECT_EQ(out.nranks, in.nranks);
  EXPECT_EQ(out.config_hash, in.config_hash);
  EXPECT_EQ(out.n, in.n);
  EXPECT_EQ(out.block_side, in.block_side);
  EXPECT_EQ(out.semiring, in.semiring);
  EXPECT_EQ(out.elem_bytes, in.elem_bytes);

  dist::BlockAnnounce an;
  an.bi = 3;
  an.bj = 7;
  an.bytes = 16384;
  an.checksum = 0x1234567890ABCDEFull;
  const auto af = dist::encode_block_announce(12, an);
  ASSERT_EQ(parse_header(af.data(), af.size(), &h), HeaderParse::Ok);
  EXPECT_EQ(h.type, MsgType::BlockAnnounce);
  dist::BlockAnnounce aout;
  ASSERT_TRUE(decode_block_announce(h.version, af.data() + kHeaderSize, h.len,
                                    &aout, &err))
      << err;
  EXPECT_EQ(aout.bi, an.bi);
  EXPECT_EQ(aout.bj, an.bj);
  EXPECT_EQ(aout.bytes, an.bytes);
  EXPECT_EQ(aout.checksum, an.checksum);

  SplitMix64 rng(77);
  std::vector<std::uint8_t> block(256);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next_below(256));
  const auto df =
      dist::encode_block_data(13, 1, 4, 0xFEEDull, block.data(), block.size());
  ASSERT_EQ(parse_header(df.data(), df.size(), &h), HeaderParse::Ok);
  EXPECT_EQ(h.type, MsgType::BlockData);
  EXPECT_EQ(h.len, dist::kBlockDataPrefix + block.size());
  dist::BlockDataView v;
  ASSERT_TRUE(decode_block_data(h.version, df.data() + kHeaderSize, h.len,
                                block.size(), &v, &err))
      << err;
  EXPECT_EQ(v.bi, 1u);
  EXPECT_EQ(v.bj, 4u);
  EXPECT_EQ(v.checksum, 0xFEEDull);
  ASSERT_EQ(v.len, block.size());
  EXPECT_EQ(std::memcmp(v.data, block.data(), block.size()), 0);

  dist::PeerDone d;
  d.rank = 4;
  d.blocks_computed = 21;
  d.bytes_sent = 1u << 24;
  const auto pf = dist::encode_peer_done(14, d);
  ASSERT_EQ(parse_header(pf.data(), pf.size(), &h), HeaderParse::Ok);
  EXPECT_EQ(h.type, MsgType::PeerDone);
  dist::PeerDone dout;
  ASSERT_TRUE(decode_peer_done(h.version, pf.data() + kHeaderSize, h.len,
                               &dout, &err))
      << err;
  EXPECT_EQ(dout.rank, d.rank);
  EXPECT_EQ(dout.blocks_computed, d.blocks_computed);
  EXPECT_EQ(dout.bytes_sent, d.bytes_sent);
}

TEST(PeerFrames, TruncationAtEveryByteBoundaryFailsCleanly) {
  dist::PeerHello hello;
  hello.rank = 0;
  hello.nranks = 3;
  hello.n = 256;
  hello.block_side = 64;
  hello.elem_bytes = 4;
  dist::BlockAnnounce an;
  an.bj = 2;
  dist::PeerDone done;
  done.rank = 1;
  const std::vector<std::uint8_t> payload(64, 0xAB);

  struct Case {
    const char* name;
    std::vector<std::uint8_t> frame;
  };
  const Case cases[] = {
      {"hello", dist::encode_peer_hello(1, hello)},
      {"announce", dist::encode_block_announce(2, an)},
      {"data", dist::encode_block_data(3, 0, 1, 9, payload.data(),
                                       payload.size())},
      {"done", dist::encode_peer_done(4, done)},
  };
  for (const Case& c : cases) {
    FrameHeader h;
    ASSERT_EQ(parse_header(c.frame.data(), c.frame.size(), &h),
              HeaderParse::Ok);
    for (std::size_t cut = 0; cut < kHeaderSize; ++cut)
      EXPECT_EQ(parse_header(c.frame.data(), cut, &h), HeaderParse::NeedMore)
          << c.name << " header cut " << cut;
    for (std::size_t cut = 0; cut < h.len; ++cut) {
      std::string err;
      bool ok = false;
      const std::uint8_t* p = c.frame.data() + kHeaderSize;
      if (h.type == MsgType::PeerHello) {
        dist::PeerHello out;
        ok = decode_peer_hello(h.version, p, cut, &out, &err);
      } else if (h.type == MsgType::BlockAnnounce) {
        dist::BlockAnnounce out;
        ok = decode_block_announce(h.version, p, cut, &out, &err);
      } else if (h.type == MsgType::BlockData) {
        dist::BlockDataView out;
        ok = decode_block_data(h.version, p, cut, payload.size(), &out, &err);
      } else {
        dist::PeerDone out;
        ok = decode_peer_done(h.version, p, cut, &out, &err);
      }
      EXPECT_FALSE(ok) << c.name << " cut " << cut << "/" << h.len;
    }
  }
}

TEST(PeerFrames, BlockDataOfUnexpectedSizeIsRejected) {
  // The receiver knows its block_bytes from the hello; a BlockData whose
  // payload is any other size — oversize or short — must fail decode
  // before a byte reaches the matrix slab.
  const std::vector<std::uint8_t> payload(128, 0x3C);
  const auto frame =
      dist::encode_block_data(5, 0, 0, 1, payload.data(), payload.size());
  FrameHeader h;
  ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
  dist::BlockDataView v;
  std::string err;
  EXPECT_FALSE(decode_block_data(h.version, frame.data() + kHeaderSize, h.len,
                                 /*expected_len=*/64, &v, &err));
  EXPECT_NE(err.find("expected 64"), std::string::npos) << err;
  EXPECT_FALSE(decode_block_data(h.version, frame.data() + kHeaderSize, h.len,
                                 /*expected_len=*/256, &v, &err));
}

TEST(PeerFrames, TrailingBytesFailDecode) {
  dist::PeerDone d;
  auto frame = dist::encode_peer_done(6, d);
  frame.push_back(0);
  FrameHeader h;
  ASSERT_EQ(parse_header(frame.data(), frame.size(), &h), HeaderParse::Ok);
  dist::PeerDone out;
  std::string err;
  EXPECT_FALSE(decode_peer_done(h.version, frame.data() + kHeaderSize,
                                frame.size() - kHeaderSize, &out, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(PeerFrames, V1HeadersAreRejected) {
  // v1 predates the peer tier; nothing at that version can legitimately
  // have produced a peer frame, so the decoders refuse it outright.
  dist::PeerHello hello;
  hello.nranks = 2;
  hello.n = 64;
  hello.block_side = 32;
  hello.elem_bytes = 4;
  const auto hf = dist::encode_peer_hello(7, hello);
  FrameHeader h;
  ASSERT_EQ(parse_header(hf.data(), hf.size(), &h), HeaderParse::Ok);
  dist::PeerHello out;
  std::string err;
  EXPECT_FALSE(decode_peer_hello(/*version=*/1, hf.data() + kHeaderSize,
                                 h.len, &out, &err));
  EXPECT_NE(err.find("protocol v2"), std::string::npos) << err;
  dist::BlockAnnounce aout;
  EXPECT_FALSE(decode_block_announce(1, hf.data() + kHeaderSize, h.len, &aout,
                                     &err));
  dist::BlockDataView v;
  EXPECT_FALSE(
      decode_block_data(1, hf.data() + kHeaderSize, h.len, 64, &v, &err));
  dist::PeerDone dout;
  EXPECT_FALSE(
      decode_peer_done(1, hf.data() + kHeaderSize, h.len, &dout, &err));
}

TEST(PeerFrames, RequestServerAnswersPeerFramesWithUnknownType) {
  // Peer frames are not request types: a client that aims one at an
  // ordinary NpdpServer gets the standard typed UnknownType error and the
  // connection survives — the request tier never interprets peer frames.
  ServerFixture fx;
  NpdpClient cli = fx.connect();
  dist::PeerHello hello;
  hello.nranks = 2;
  hello.n = 64;
  hello.block_side = 32;
  hello.elem_bytes = 4;
  std::string err;
  ASSERT_TRUE(cli.send_frame(dist::encode_peer_hello(91, hello), &err)) << err;
  Reply rep;
  ASSERT_EQ(cli.recv_reply(&rep, 5000, &err), RecvStatus::Ok) << err;
  ASSERT_EQ(rep.kind, Reply::Kind::ProtoError);
  EXPECT_EQ(rep.code, ProtoErrorCode::UnknownType);
  EXPECT_EQ(rep.id, 91u);
  ASSERT_EQ(cli.ping(92, 5000, &err), RecvStatus::Ok) << err;
}

// --- the control frames on every host --------------------------------------

// net-serve, net-route and the stats-only port of a dist-solve peer answer
// the control frames through one handler, so each must answer them alike.
enum class ControlHost { Server, Router, StatsPort };

struct ControlHostFixture {
  explicit ControlHostFixture(ControlHost kind) {
    std::string err;
    if (kind == ControlHost::StatsPort) {
      stats_port = start_stats_port("127.0.0.1", 0, &err);
      EXPECT_NE(stats_port, nullptr) << err;
      if (stats_port != nullptr) port = stats_port->port();
      json_section = "metrics";
      return;
    }
    server = std::make_unique<ServerFixture>();
    port = server->server->port();
    json_section = "serve";
    if (kind == ControlHost::Router) {
      router::RouterOptions ro;
      ro.net.port = 0;
      ro.replicas.push_back({"r1", "127.0.0.1", port});
      router = std::make_unique<router::NpdpRouter>(ro);
      EXPECT_TRUE(router->start(&err)) << err;
      port = router->port();
      json_section = "router";
    }
  }
  NpdpClient connect() const {
    NpdpClient c;
    std::string err;
    EXPECT_TRUE(c.connect("127.0.0.1", port, &err)) << err;
    return c;
  }
  std::unique_ptr<ServerFixture> server;  ///< also the router's replica
  std::unique_ptr<router::NpdpRouter> router;
  std::unique_ptr<EpollFrontEnd> stats_port;
  std::uint16_t port = 0;
  std::string json_section;  ///< a top-level key of the host's Stats JSON
};

class ControlFrames : public ::testing::TestWithParam<ControlHost> {};

TEST_P(ControlFrames, AnsweredAlikeOnEveryHost) {
  ControlHostFixture fx(GetParam());
  ASSERT_NE(fx.port, 0);
  obs::metrics().counter("test.control_frames").add();
  resilience::breakers().clear();
  resilience::breakers().breaker("control-frames-test");
  std::string err;
  Reply rep;
  {
    NpdpClient first = fx.connect();
    {
      SCOPED_TRACE("Ping");
      EXPECT_EQ(first.ping(1, 5000, &err), RecvStatus::Ok) << err;
    }
    {
      SCOPED_TRACE("StatsRequest");
      WireStats ws;
      ASSERT_EQ(first.stats_snapshot(&ws, 5000, &err), RecvStatus::Ok) << err;
      EXPECT_GE(ws.metrics.counter_or("test.control_frames", 0), 1);
      EXPECT_TRUE(std::any_of(
          ws.breakers.begin(), ws.breakers.end(),
          [](const WireBreaker& b) { return b.name == "control-frames-test"; }));
      EXPECT_GE(ws.queue_depth, 0);
    }
    {
      SCOPED_TRACE("Stats");
      std::string json;
      ASSERT_EQ(first.stats(&json, 5000, &err), RecvStatus::Ok) << err;
      JsonValue root;
      ASSERT_TRUE(json_parse(json, root, &err)) << err << "\n" << json;
      EXPECT_TRUE(root.has(fx.json_section)) << json;
    }
    {
      SCOPED_TRACE("unknown type");
      std::vector<std::uint8_t> frame;
      encode_header(frame, static_cast<MsgType>(77), 41, 0);
      ASSERT_TRUE(first.send_frame(frame, &err)) << err;
      ASSERT_EQ(first.recv_reply(&rep, 5000, &err), RecvStatus::Ok) << err;
      EXPECT_EQ(rep.kind, Reply::Kind::ProtoError);
      EXPECT_EQ(rep.code, ProtoErrorCode::UnknownType);
      EXPECT_EQ(rep.id, 41u);
    }
    {
      SCOPED_TRACE("a second client while the first stays connected");
      NpdpClient second = fx.connect();
      EXPECT_EQ(second.ping(2, 2000, &err), RecvStatus::Ok) << err;
      EXPECT_EQ(first.ping(3, 5000, &err), RecvStatus::Ok) << err;
    }
  }
  {
    SCOPED_TRACE("a header one version ahead");
    NpdpClient ahead = fx.connect();
    std::vector<std::uint8_t> frame;
    encode_header(frame, MsgType::Ping, 5, 0, kVersion + 1);
    ASSERT_TRUE(ahead.send_frame(frame, &err)) << err;
    ASSERT_EQ(ahead.recv_reply(&rep, 5000, &err), RecvStatus::Ok) << err;
    EXPECT_EQ(rep.kind, Reply::Kind::ProtoError);
    EXPECT_EQ(rep.code, ProtoErrorCode::BadVersion);
    EXPECT_EQ(ahead.recv_reply(&rep, 2000, &err), RecvStatus::Closed);
  }
  resilience::breakers().clear();
}

std::string host_name(const ::testing::TestParamInfo<ControlHost>& info) {
  const char* const kNames[] = {"NpdpServer", "NpdpRouter", "StatsPort"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllHosts, ControlFrames,
                         ::testing::Values(ControlHost::Server,
                                           ControlHost::Router,
                                           ControlHost::StatsPort),
                         host_name);

TEST(StatsPort, StopsPromptlyWithAWatcherAttached) {
  // dist-solve destroys its stats port on the way out, with any `npdp
  // top` still connected; that must not hold the process up.
  std::string err;
  auto port = start_stats_port("127.0.0.1", 0, &err);
  ASSERT_NE(port, nullptr) << err;
  NpdpClient watcher;
  ASSERT_TRUE(watcher.connect("127.0.0.1", port->port(), &err)) << err;
  WireStats ws;
  ASSERT_EQ(watcher.stats_snapshot(&ws, 5000, &err), RecvStatus::Ok) << err;
  const auto t0 = std::chrono::steady_clock::now();
  port.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(1000));
  Reply rep;
  EXPECT_EQ(watcher.recv_reply(&rep, 2000, &err), RecvStatus::Closed);
}

TEST(NetLoadgen, PercentileInterpolates) {
  EXPECT_EQ(latency_percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(latency_percentile({5.0}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(latency_percentile({1.0, 3.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(latency_percentile({3.0, 1.0, 2.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(latency_percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
}

}  // namespace
}  // namespace cellnpdp::net
