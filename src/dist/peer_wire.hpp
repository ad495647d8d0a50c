// Wire frames for the peer-execution tier (src/dist): the three symmetric
// frame kinds a distributed solve exchanges, riding the same 20-byte
// versioned header as every other npdp frame (src/net/protocol.hpp) and
// decoded with the same bounds-checked WireReader discipline — a payload
// must be consumed exactly, enum bytes are range-checked, and any
// malformation is answered with a typed ProtoError instead of trusting
// the bytes.
//
//   PeerHello      opens a peer connection: sender rank, group size, and
//                  a workload fingerprint (n, block side, semiring, elem
//                  width, config hash) that every peer must agree on —
//                  two processes solving different instances must fail
//                  the handshake, not diverge silently.
//   BlockData      one finished block, the only frame a block needs:
//                  coordinates, FNV-1a checksum, then the raw bs*bs
//                  cell bytes exactly as they sit in the
//                  BlockedTriangularMatrix slab (one contiguous memcpy
//                  each way keeps the exchange bit-exact).
//   PeerDone       the sender has computed every block it owns and has
//                  every remote block; carries counters for sanity.
//
// Peer frames are v2 frames: a v1 header on any of them is rejected
// (kind "peer frames require protocol v2"), because v1 predates the peer
// tier and nothing at that version can have produced one legitimately.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace cellnpdp::dist {

/// The handshake payload. `config_hash` fingerprints whatever the driver
/// cannot express in the explicit fields (seed, workload mode, kernel);
/// peers compare the whole struct field-for-field.
struct PeerHello {
  std::uint32_t rank = 0;
  std::uint32_t nranks = 0;
  std::uint64_t config_hash = 0;
  std::int64_t n = 0;
  std::int64_t block_side = 0;
  std::uint8_t semiring = 0;   ///< SemiringId as a byte
  std::uint8_t elem_bytes = 0; ///< sizeof(T): 4 = float, 8 = double
};

/// Decoded view of a BlockData payload. `data` points into the payload
/// buffer passed to decode (zero-copy; the caller memcpys into its slab).
struct BlockDataView {
  std::uint32_t bi = 0;
  std::uint32_t bj = 0;
  std::uint64_t checksum = 0;
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
};

struct PeerDone {
  std::uint32_t rank = 0;
  std::uint32_t blocks_computed = 0;
  std::uint64_t bytes_sent = 0;
};

/// Fixed non-payload prefix of a BlockData frame (bi, bj, checksum).
constexpr std::size_t kBlockDataPrefix = 4 + 4 + 8;

inline std::vector<std::uint8_t> encode_peer_hello(std::uint64_t id,
                                                   const PeerHello& h) {
  std::vector<std::uint8_t> body;
  net::put_u32(body, h.rank);
  net::put_u32(body, h.nranks);
  net::put_u64(body, h.config_hash);
  net::put_i64(body, h.n);
  net::put_i64(body, h.block_side);
  net::put_u8(body, h.semiring);
  net::put_u8(body, h.elem_bytes);
  std::vector<std::uint8_t> out;
  out.reserve(net::kHeaderSize + body.size());
  net::encode_header(out, net::MsgType::PeerHello, id,
                     static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

inline std::vector<std::uint8_t> encode_block_data(std::uint64_t id,
                                                   std::uint32_t bi,
                                                   std::uint32_t bj,
                                                   std::uint64_t checksum,
                                                   const void* data,
                                                   std::size_t len) {
  std::vector<std::uint8_t> out;
  out.reserve(net::kHeaderSize + kBlockDataPrefix + len);
  net::encode_header(out, net::MsgType::BlockData, id,
                     static_cast<std::uint32_t>(kBlockDataPrefix + len));
  net::put_u32(out, bi);
  net::put_u32(out, bj);
  net::put_u64(out, checksum);
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + len);
  return out;
}

inline std::vector<std::uint8_t> encode_peer_done(std::uint64_t id,
                                                  const PeerDone& d) {
  std::vector<std::uint8_t> body;
  net::put_u32(body, d.rank);
  net::put_u32(body, d.blocks_computed);
  net::put_u64(body, d.bytes_sent);
  std::vector<std::uint8_t> out;
  out.reserve(net::kHeaderSize + body.size());
  net::encode_header(out, net::MsgType::PeerDone, id,
                     static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

namespace wire_detail {
inline bool require_v2(std::uint16_t version, std::string* err) {
  if (version >= 2) return true;
  *err = "peer frames require protocol v2";
  return false;
}
inline bool finish(const net::WireReader& r, std::string* err) {
  if (r.done()) return true;
  *err = r.ok ? "trailing bytes after payload" : "payload truncated";
  return false;
}
}  // namespace wire_detail

inline bool decode_peer_hello(std::uint16_t version, const std::uint8_t* p,
                              std::size_t n, PeerHello* out,
                              std::string* err) {
  if (!wire_detail::require_v2(version, err)) return false;
  net::WireReader r(p, n);
  out->rank = r.u32();
  out->nranks = r.u32();
  out->config_hash = r.u64();
  out->n = r.i64();
  out->block_side = r.i64();
  out->semiring = r.u8();
  out->elem_bytes = r.u8();
  if (!wire_detail::finish(r, err)) return false;
  if (out->nranks < 1 || out->rank >= out->nranks) {
    *err = "hello: rank out of range";
    return false;
  }
  if (out->semiring >= kSemiringCount) {
    *err = "hello: semiring byte out of range";
    return false;
  }
  if (out->elem_bytes != 4 && out->elem_bytes != 8) {
    *err = "hello: element width must be 4 or 8";
    return false;
  }
  if (out->n < 1 || out->block_side < 1) {
    *err = "hello: n and block side must be >= 1";
    return false;
  }
  return true;
}

/// `expected_len` is the receiver's block_bytes (known from the hello);
/// a payload of any other size is rejected before the data is trusted —
/// this is what keeps an oversize or short BlockData from ever reaching
/// the matrix slab.
inline bool decode_block_data(std::uint16_t version, const std::uint8_t* p,
                              std::size_t n, std::size_t expected_len,
                              BlockDataView* out, std::string* err) {
  if (!wire_detail::require_v2(version, err)) return false;
  net::WireReader r(p, n);
  out->bi = r.u32();
  out->bj = r.u32();
  out->checksum = r.u64();
  if (!r.ok) {
    *err = "payload truncated";
    return false;
  }
  out->data = p + r.off;
  out->len = n - r.off;
  if (out->len != expected_len) {
    *err = "block data: payload is " + std::to_string(out->len) +
           " bytes, expected " + std::to_string(expected_len);
    return false;
  }
  if (out->bi > out->bj) {
    *err = "block data: block above the diagonal (bi > bj)";
    return false;
  }
  return true;
}

inline bool decode_peer_done(std::uint16_t version, const std::uint8_t* p,
                             std::size_t n, PeerDone* out, std::string* err) {
  if (!wire_detail::require_v2(version, err)) return false;
  net::WireReader r(p, n);
  out->rank = r.u32();
  out->blocks_computed = r.u32();
  out->bytes_sent = r.u64();
  return wire_detail::finish(r, err);
}

}  // namespace cellnpdp::dist
