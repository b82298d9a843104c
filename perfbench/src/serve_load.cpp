#include "serve_load.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "serve/net.hpp"

namespace pb {

namespace {

std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
}

/// Classify one response line and find its id and retry hint.
void classify(const std::string& line, std::uint64_t* id, bool* has_id,
              decltype(RequestOutcome::status)* st, std::int64_t* retry_after_ms) {
  const auto pos = line.find("\"id\":");
  *has_id = pos != std::string::npos;
  if (*has_id) *id = std::strtoull(line.c_str() + pos + 5, nullptr, 10);
  const auto ra = line.find("\"retry_after_ms\":");
  *retry_after_ms = ra == std::string::npos ? 0 : std::strtoll(line.c_str() + ra + 17, nullptr, 10);
  if (line.rfind("{\"ok\":true", 0) == 0)
    *st = RequestOutcome::kOk;
  else if (line.find("\"error\":\"overloaded\"") != std::string::npos)
    *st = RequestOutcome::kShed;
  else
    *st = RequestOutcome::kError;
}

/// One connection's buffers.  Writes never block: what the socket does
/// not take now stays in `outbox` for the next pass of the loop.
struct Conn {
  int fd = -1;
  std::string outbox, inbox;
  bool broken = false;
};

void flush(Conn& c) {
  while (!c.outbox.empty() && !c.broken) {
    const ssize_t n = ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.outbox.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      c.broken = true;
    }
  }
}

}  // namespace

std::vector<PlannedRequest> plan_phase(
    double rate, double seconds, const ServeMix& mix, double first_reload_s,
    std::uint64_t seed, std::uint64_t first_id, std::uint64_t mc_seed_base,
    const std::function<std::string(std::uint64_t)>& eval16_line) {
  Rng rng(seed, 0x5e7e);
  std::vector<PlannedRequest> plan;
  const double total = mix.eval16 + mix.mc256 + mix.status;
  double t = 0.0, next_reload = first_reload_s;
  std::uint64_t id = first_id;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    while (next_reload <= t && next_reload < seconds) {
      plan.push_back({id, ReqKind::kReload, static_cast<std::int64_t>(next_reload * 1e9),
                      "{\"op\":\"reload\",\"id\":" + std::to_string(id) + "}\n"});
      ++id;
      next_reload += mix.reload_period_s;
    }
    if (t >= seconds) break;
    const double u = rng.uniform() * total;
    PlannedRequest r{id, ReqKind::kEval16, static_cast<std::int64_t>(t * 1e9), {}};
    if (u < mix.eval16) {
      r.line = eval16_line(id);
    } else if (u < mix.eval16 + mix.mc256) {
      r.kind = ReqKind::kMc256;
      r.line = "{\"op\":\"eval\",\"id\":" + std::to_string(id) +
               ",\"mc\":256,\"summary\":true,\"seed\":" + std::to_string(mc_seed_base + id) +
               "}\n";
    } else {
      r.kind = ReqKind::kStatus;
      r.line = "{\"op\":\"status\",\"id\":" + std::to_string(id) + "}\n";
    }
    plan.push_back(std::move(r));
    ++id;
  }
  return plan;
}

std::vector<RequestOutcome> run_phase(const std::string& sock,
                                      const std::vector<PlannedRequest>& plan,
                                      std::size_t connections, double drain_s,
                                      std::uint64_t keep_every, Clock::time_point& start) {
  // One thread busy-polls every connection: it never sleeps, so neither
  // send times nor receive timestamps wait for a sleeping CPU to wake.
  std::vector<RequestOutcome> out(plan.size());
  std::vector<Conn> conns(connections);
  for (auto& c : conns) c.fd = awe::serve::net::connect_unix(sock);
  const std::uint64_t first_id = plan.empty() ? 0 : plan.front().id;
  const std::int64_t end_ns = plan.empty() ? 0 : plan.back().sched_ns;
  const std::int64_t drain_end = end_ns + static_cast<std::int64_t>(drain_s * 1e9);
  std::size_t next = 0, pending = 0;
  std::vector<std::pair<std::int64_t, std::size_t>> retries;  // (due, index)
  Rng jitter(first_id, 0x7e7);
  char chunk[65536];
  start = Clock::now() + std::chrono::milliseconds(5);
  auto send = [&](std::size_t i) {
    Conn& c = conns[i % connections];
    c.outbox += plan[i].line;
    ++out[i].attempts;
    flush(c);
  };
  for (;;) {
    std::int64_t now = ns_since(start);
    for (; next < plan.size() && now >= plan[next].sched_ns; ++next) {
      out[next].sent_ns = now;
      send(next);
      ++pending;
    }
    for (std::size_t k = 0; k < retries.size();) {
      if (now < retries[k].first) {
        ++k;
        continue;
      }
      send(retries[k].second);
      retries[k] = retries.back();
      retries.pop_back();
    }
    if (next == plan.size() && (pending == 0 || now >= drain_end)) break;
    bool all_broken = true;
    for (auto& c : conns) {
      flush(c);
      if (c.broken) continue;
      all_broken = false;
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n == 0) c.broken = true;
      if (n <= 0) continue;
      const std::int64_t recv_ns = ns_since(start);
      c.inbox.append(chunk, static_cast<std::size_t>(n));
      std::size_t begin = 0;
      for (std::size_t nl; (nl = c.inbox.find('\n', begin)) != std::string::npos; begin = nl + 1) {
        const std::string line = c.inbox.substr(begin, nl - begin);
        std::uint64_t id = 0;
        bool has_id = false;
        decltype(RequestOutcome::status) st{};
        std::int64_t retry_after_ms = 0;
        classify(line, &id, &has_id, &st, &retry_after_ms);
        if (!has_id || id < first_id || id - first_id >= plan.size()) continue;
        RequestOutcome& o = out[id - first_id];
        if (o.status != RequestOutcome::kPending) continue;
        if (st == RequestOutcome::kShed && o.attempts < kMaxAttempts) {
          const double wait_ns = static_cast<double>(retry_after_ms) * 1e6 * (1 + jitter.uniform());
          retries.emplace_back(recv_ns + static_cast<std::int64_t>(wait_ns), id - first_id);
          continue;
        }
        o.status = st;
        o.recv_ns = recv_ns;
        o.bytes = line.size() + 1;
        if (keep_every && id % keep_every == 0) o.line = line;
        if (pending) --pending;
      }
      c.inbox.erase(0, begin);
    }
    if (all_broken) break;
  }
  for (auto& c : conns) ::close(c.fd);
  return out;
}

ClosedResult run_closed(const std::string& sock, const std::vector<PlannedRequest>& plan,
                        double seconds, std::uint64_t keep_every) {
  ClosedResult r;
  r.out.resize(plan.size());
  Conn c;
  c.fd = awe::serve::net::connect_unix(sock);
  const auto start = Clock::now();
  const auto end_ns = static_cast<std::int64_t>(seconds * 1e9);
  char chunk[65536];
  for (std::size_t i = 0; i < plan.size() && !c.broken; ++i) {
    const std::int64_t sent_ns = ns_since(start);
    if (sent_ns >= end_ns) break;
    RequestOutcome& o = r.out[i];
    o.sent_ns = sent_ns;
    o.attempts = 1;
    ++r.sent;
    c.outbox = plan[i].line;
    // Busy-poll for the answer; one still missing after 2 s counts as
    // failed, and a late answer to it is skipped by its id.
    while (o.status == RequestOutcome::kPending && !c.broken &&
           ns_since(start) < sent_ns + 2'000'000'000) {
      flush(c);
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n == 0) c.broken = true;
      if (n <= 0) continue;
      const std::int64_t recv_ns = ns_since(start);
      c.inbox.append(chunk, static_cast<std::size_t>(n));
      std::size_t begin = 0;
      for (std::size_t nl; (nl = c.inbox.find('\n', begin)) != std::string::npos; begin = nl + 1) {
        const std::string line = c.inbox.substr(begin, nl - begin);
        std::uint64_t id = 0;
        bool has_id = false;
        decltype(RequestOutcome::status) st{};
        std::int64_t retry_after_ms = 0;
        classify(line, &id, &has_id, &st, &retry_after_ms);
        if (!has_id || id != plan[i].id) continue;
        o.status = st;
        o.recv_ns = recv_ns;
        o.bytes = line.size() + 1;
        if (keep_every && id % keep_every == 0) o.line = line;
      }
      c.inbox.erase(0, begin);
    }
    if (o.status == RequestOutcome::kOk) ++r.ok;
  }
  ::close(c.fd);
  r.failed = r.sent - r.ok;
  return r;
}

PhaseResult summarize_phase(double rate, double seconds,
                            const std::vector<PlannedRequest>& plan,
                            const std::vector<RequestOutcome>& out, double p99_limit_ms,
                            double lag_limit_ms) {
  PhaseResult r;
  r.rate = rate;
  r.seconds = seconds;
  std::vector<double> with_failures, lag, reload;
  std::vector<double> first_fifth, last_fifth;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const RequestOutcome& o = out[i];
    if (o.sent_ns < 0) {
      ++r.unanswered;  // never sent: the connection broke
      with_failures.push_back(inf);
      continue;
    }
    ++r.sent;
    if (o.attempts > 1) ++r.retried;
    lag.push_back(static_cast<double>(o.sent_ns - plan[i].sched_ns) * 1e-6);
    double ms = inf;
    switch (o.status) {
      case RequestOutcome::kOk:
        ++r.ok;
        ms = static_cast<double>(o.recv_ns - plan[i].sched_ns) * 1e-6;
        r.lat_ms.push_back(ms);
        if (plan[i].kind == ReqKind::kReload) reload.push_back(ms);
        break;
      case RequestOutcome::kShed: ++r.shed; break;
      case RequestOutcome::kError: ++r.errored; break;
      case RequestOutcome::kPending: ++r.unanswered; break;
    }
    with_failures.push_back(ms);
    const double t = static_cast<double>(plan[i].sched_ns) * 1e-9;
    if (t < 0.2 * seconds) first_fifth.push_back(ms);
    if (t >= 0.8 * seconds) last_fifth.push_back(ms);
  }
  r.p50_ms = pct(with_failures, 50);
  r.p99_ms = pct(with_failures, 99);
  r.p99_answered_ms = pct(r.lat_ms, 99);
  r.gen_lag_p99_ms = pct(lag, 99);
  r.valid = r.gen_lag_p99_ms <= lag_limit_ms;
  // A growing backlog shows as the end of the phase waiting far longer
  // than its start.
  const double head = pct(first_fifth, 50), tail = pct(last_fifth, 50);
  r.backlog_growth = tail > 2.0 * head && tail > 1.0;
  r.pass = r.valid && r.p99_ms <= p99_limit_ms && !r.backlog_growth;
  r.reloads = reload.size();
  r.reload_ms_p50 = pct(reload, 50);
  return r;
}

std::string round_trip(int fd, const std::string& line, double* secs) {
  const auto t0 = Clock::now();
  std::string resp;
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(line.size())) {
    char c[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, c, sizeof(c), 0);
      if (n <= 0) break;
      resp.append(c, static_cast<std::size_t>(n));
      if (resp.back() == '\n') break;
    }
  }
  if (secs) *secs = secs_since(t0);
  if (!resp.empty() && resp.back() == '\n') resp.pop_back();
  return resp;
}

}  // namespace pb
