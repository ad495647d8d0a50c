#include "net/server.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/request_log.hpp"
#include "obs/trace.hpp"

namespace cellnpdp::net {

namespace {
using SteadyClock = std::chrono::steady_clock;

FrontEndOptions frontend_options(const ServerOptions& o) {
  FrontEndOptions f;
  f.host = o.host;
  f.port = o.port;
  f.reactors = o.reactors;
  f.max_frame = o.max_frame;
  f.idle_timeout_ms = o.idle_timeout_ms;
  f.drain_timeout_ms = o.drain_timeout_ms;
  f.counter_prefix = "net";
  return f;
}
}  // namespace

NpdpServer::NpdpServer(ServerOptions net, serve::ServiceOptions service)
    : opts_(std::move(net)),
      service_(std::move(service)),
      fe_(frontend_options(opts_)) {
  fe_.set_frame_handler(
      [this](const EpollFrontEnd::ConnPtr& c, const FrameHeader& h,
             const std::uint8_t* payload) { handle_frame(c, h, payload); });
  // The drain hook runs inside fe_.stop() after the listener closes:
  // every admitted request still gets its terminal response while the
  // reactors keep flushing sockets.
  fe_.set_drain_hook([this] { service_.stop(true); });
}

NpdpServer::~NpdpServer() { stop(); }

bool NpdpServer::start(std::string* err) { return fe_.start(err); }

void NpdpServer::stop() { fe_.stop(); }

void NpdpServer::handle_frame(const EpollFrontEnd::ConnPtr& c,
                              const FrameHeader& h,
                              const std::uint8_t* payload) {
  switch (h.type) {
    case MsgType::Solve:
    case MsgType::Fold:
    case MsgType::Parse:
    case MsgType::Chain:
    case MsgType::Bst: {
      WireRequest w;
      std::string err;
      if (!decode_request_payload(h.type, h.version, h.id, payload, h.len,
                                  &w, &err)) {
        fe_.note_bad_frame();
        fe_.reply_now(c, encode_proto_error(h.id, ProtoErrorCode::BadPayload,
                                            err));
        return;  // framing is intact: the connection survives
      }
      CELLNPDP_TRACE_INSTANT("net", "decode",
                             static_cast<std::int64_t>(h.id));
      if (w.tenant != 0)
        obs::metrics()
            .counter("net.tenant.requests{tenant=" +
                     std::to_string(w.tenant) + "}")
            .add();
      // Request-chain marker: keyed by trace_id (a0) so the merged trace
      // correlates this reactor event with the client and serve spans.
      if (w.trace.sampled)
        CELLNPDP_TRACE_INSTANT(
            "req", "decode", static_cast<std::int64_t>(w.trace.trace_id));
      fe_.begin_async(c);
      EpollFrontEnd::ConnRef wc = c;
      service_.submit(
          to_serve_request(w),
          [this, wc = std::move(wc)](serve::Response resp) {
            CELLNPDP_TRACE_INSTANT("net", "respond",
                                   static_cast<std::int64_t>(resp.id));
            const auto enc0 = SteadyClock::now();
            std::vector<std::uint8_t> frame = encode_response(resp);
            const std::int64_t encode_ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    SteadyClock::now() - enc0)
                    .count();
            obs::metrics().histogram("net.encode_ns").observe(encode_ns);
            if (obs::request_log().enabled())
              obs::request_log().annotate_encode(resp.id, encode_ns);
            CELLNPDP_TRACE_INSTANT("net", "encode",
                                   static_cast<std::int64_t>(resp.id));
            if (resp.trace_sampled)
              CELLNPDP_TRACE_INSTANT(
                  "req", "encode", static_cast<std::int64_t>(resp.trace_id));
            fe_.async_reply(wc, std::move(frame));
          });
      return;
    }
    default:
      fe_.answer_control(c, h, [this] { return stats_json(); }, [this] {
        return static_cast<std::int64_t>(service_.stats().queue_depth);
      });
      return;
  }
}

std::string NpdpServer::stats_json() const {
  const ServerStats ns = stats();
  const serve::ServiceStats ss = service_.stats();
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("net").begin_object();
  w.kv("accepted", static_cast<std::int64_t>(ns.accepted));
  w.kv("active_conns", static_cast<std::int64_t>(ns.active_conns));
  w.kv("disconnects", static_cast<std::int64_t>(ns.disconnects));
  w.kv("bytes_in", static_cast<std::int64_t>(ns.bytes_in));
  w.kv("bytes_out", static_cast<std::int64_t>(ns.bytes_out));
  w.kv("frames_in", static_cast<std::int64_t>(ns.frames_in));
  w.kv("responses", static_cast<std::int64_t>(ns.responses));
  w.kv("frames_bad", static_cast<std::int64_t>(ns.frames_bad));
  w.kv("protocol_errors", static_cast<std::int64_t>(ns.protocol_errors));
  w.kv("dropped_responses",
       static_cast<std::int64_t>(ns.dropped_responses));
  w.end_object();
  w.key("serve").begin_object();
  w.kv("submitted", static_cast<std::int64_t>(ss.submitted));
  w.kv("completed", static_cast<std::int64_t>(ss.completed));
  w.kv("cache_hits", static_cast<std::int64_t>(ss.cache_hits));
  w.kv("rejected", static_cast<std::int64_t>(ss.rejected));
  w.kv("shed", static_cast<std::int64_t>(ss.shed));
  w.kv("expired", static_cast<std::int64_t>(ss.expired));
  w.kv("cancelled", static_cast<std::int64_t>(ss.cancelled));
  w.kv("errors", static_cast<std::int64_t>(ss.errors));
  w.kv("degraded", static_cast<std::int64_t>(ss.degraded));
  w.kv("retry_after", static_cast<std::int64_t>(ss.retry_after));
  w.kv("queue_depth", static_cast<std::int64_t>(ss.queue_depth));
  w.end_object();
  w.end_object();
  return os.str();
}

ServerStats NpdpServer::stats() const {
  const FrontEndStats fs = fe_.stats();
  ServerStats s;
  s.accepted = fs.accepted;
  s.disconnects = fs.disconnects;
  s.bytes_in = fs.bytes_in;
  s.bytes_out = fs.bytes_out;
  s.frames_in = fs.frames_in;
  s.responses = fs.responses;
  s.frames_bad = fs.frames_bad;
  s.protocol_errors = fs.protocol_errors;
  s.dropped_responses = fs.dropped_responses;
  s.active_conns = fs.active_conns;
  return s;
}

}  // namespace cellnpdp::net
