// Open-loop load against a running awe_serve daemon: Poisson arrivals
// dealt over a few pipelined connections, each request timed from its
// scheduled send time and matched to its response by id.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace pb {

enum class ReqKind : std::uint8_t { kEval16, kMc256, kStatus, kReload };

struct ServeMix {
  /// Shares of the Poisson stream (normalized); reloads come on their own
  /// fixed one-per-`reload_period_s` schedule.
  double eval16 = 0.60, mc256 = 0.35, status = 0.04;
  double reload_period_s = 1.0;
};

struct PlannedRequest {
  std::uint64_t id = 0;
  ReqKind kind = ReqKind::kEval16;
  std::int64_t sched_ns = 0;  ///< offset from the phase start
  std::string line;           ///< newline-terminated request
};

/// Attempts per request: a shed request is sent again after the daemon's
/// retry_after_ms plus up to as much again of jitter, as a client
/// honouring the protocol would (the jitter keeps retries from arriving
/// as one burst).
constexpr int kMaxAttempts = 5;

/// What one connection observed for one request.
struct RequestOutcome {
  std::int64_t sent_ns = -1, recv_ns = -1;  ///< offsets from the phase start
  enum : std::uint8_t { kPending, kOk, kShed, kError } status = kPending;
  std::uint8_t attempts = 0;
  std::size_t bytes = 0;
  std::string line;  ///< kept only for requests picked for verification
};

struct PhaseResult {
  double rate = 0;
  double seconds = 0;
  std::size_t sent = 0, ok = 0, shed = 0, errored = 0, unanswered = 0;
  std::size_t retried = 0;  ///< requests shed at least once before their outcome
  std::vector<double> lat_ms;  ///< answered-ok requests, from scheduled send
  double p50_ms = 0, p99_ms = 0;  ///< failures count as infinitely late
  double p99_answered_ms = 0;     ///< over answered requests only
  double gen_lag_p99_ms = 0;      ///< how late the generator sent
  bool valid = true;              ///< generator kept up
  bool backlog_growth = false;
  bool pass = false;              ///< valid, p99 <= limit, no backlog growth
  double reload_ms_p50 = 0;
  std::size_t reloads = 0;
};

/// Plan one phase's requests (deterministic in seed).  The first reload
/// falls at `first_reload_s` (so short phases keep the one-per-period
/// cadence across phases); `eval16_line` makes the explicit-point eval
/// line for a request id.
std::vector<PlannedRequest> plan_phase(
    double rate, double seconds, const ServeMix& mix, double first_reload_s,
    std::uint64_t seed, std::uint64_t first_id, std::uint64_t mc_seed_base,
    const std::function<std::string(std::uint64_t)>& eval16_line);

/// Run a planned phase over `connections` pipelined connections to the
/// unix socket `sock`, from one busy-polling thread.  Requests are dealt
/// round-robin to connections; outcomes are indexed like `plan`; requests
/// whose id is a multiple of `keep_every` keep their response line.
std::vector<RequestOutcome> run_phase(const std::string& sock,
                                      const std::vector<PlannedRequest>& plan,
                                      std::size_t connections, double drain_s,
                                      std::uint64_t keep_every, Clock::time_point& start);

PhaseResult summarize_phase(double rate, double seconds,
                            const std::vector<PlannedRequest>& plan,
                            const std::vector<RequestOutcome>& out, double p99_limit_ms,
                            double lag_limit_ms);

/// What a closed-loop run measured.
struct ClosedResult {
  std::vector<RequestOutcome> out;  ///< indexed like the plan; unsent stay kPending
  std::size_t sent = 0, ok = 0, failed = 0;  ///< failed: shed, errored or unanswered
};

/// Closed loop on one connection to the unix socket `sock`, one request
/// outstanding: sends the next request of `plan` (its scheduled time
/// ignored) as soon as the previous one is answered, for `seconds`.  Like
/// run_phase, the client busy-polls, so its own wake-up is not in the
/// round trip.  Requests whose id is a multiple of `keep_every` keep their
/// response.
ClosedResult run_closed(const std::string& sock, const std::vector<PlannedRequest>& plan,
                        double seconds, std::uint64_t keep_every);

/// Closed-loop request on connection `fd`; returns the response line
/// (empty on transport failure) and its round trip in seconds.
std::string round_trip(int fd, const std::string& line, double* secs);

}  // namespace pb
