//===- support/Chaos.h - Deterministic fault injection ----------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded fault-injection hooks (DESIGN.md section 7.4). Instrumented
/// sites in the scheduler and the blocking primitives ask STING_CHAOS_FIRE
/// whether to inject a fault — a spurious wakeup, an extra preemption
/// point, a denied steal, a delayed unpark. The decision stream is a pure
/// function of the global seed and the calling OS thread's stream index,
/// so a failing run replays with the same seed.
///
/// The macro compiles to `false` unless the build sets -DSTING_CHAOS, so
/// release binaries pay nothing at the injection sites. The runtime knobs
/// (environment or chaos::configure) only matter in chaos builds:
///
///   STING_CHAOS=1         enable injection
///   STING_CHAOS_SEED=N    global seed (default 1)
///   STING_CHAOS_RATE=N    per-site firing rate in per-mille (default 20)
///
//===----------------------------------------------------------------------===//

#ifndef STING_SUPPORT_CHAOS_H
#define STING_SUPPORT_CHAOS_H

#include <cstdint>

namespace sting::chaos {

/// The chaos-site taxonomy: every injection point belongs to exactly one
/// site class, and rates/counters are tracked per site.
enum class Site : std::uint8_t {
  SpuriousWake,  ///< kernel park entry: pretend a wake already arrived
  PreemptPoint,  ///< extra control-transfer inside await/retry loops
  StealDeny,     ///< trySteal artificially refuses a stealable thread
  UnparkDelay,   ///< unpark stalls between reading the park word and its CAS
  NetShortIo,    ///< socket read/write artificially truncated to one byte
  NetAcceptDeny, ///< accept pretends the queue was empty and re-parks
  // Wire-layer resilience sites. These fire only on paths whose callers
  // absorb the fault by design: the first three inside net::Client (which
  // retries with backoff), the last inside the server's admission queue
  // (which sheds with an explicit Overload reply). Raw Socket/BufferedConn
  // users never see them.
  NetConnectFail, ///< client connect attempt fails as if refused
  NetPeerReset,   ///< client drops its connection as if the peer reset it
  NetSlowPeer,    ///< client stalls briefly before reading the reply
  NetSynFlood,    ///< admission queue sheds its oldest pending connection
  NumSites
};

/// \returns a stable short name for \p S (reports, traces, tests).
const char *siteName(Site S);

/// Enables injection with an explicit seed and per-mille firing rate.
/// Callable at any time; resets per-site counters and reseeds the
/// per-thread decision streams lazily.
void configure(std::uint64_t Seed, std::uint32_t RatePerMille);

/// Reads STING_CHAOS / STING_CHAOS_SEED / STING_CHAOS_RATE once and
/// configures accordingly. No-op when the build lacks -DSTING_CHAOS or the
/// variable is unset. Called from VirtualMachine construction.
void initFromEnvOnce();

void setEnabled(bool On);
bool enabled();

/// The active global seed (meaningful while enabled).
std::uint64_t seed();

/// Decision point: true if a fault should be injected at \p S now. Callers
/// use STING_CHAOS_FIRE so non-chaos builds skip the call entirely.
bool fire(Site S);

/// Faults injected at \p S since the last configure().
std::uint64_t injections(Site S);

/// Sum of injections over all sites.
std::uint64_t totalInjections();

} // namespace sting::chaos

/// Site guard used at instrumentation points. Evaluates to false (and
/// costs nothing) unless the build defines STING_CHAOS.
#ifdef STING_CHAOS
#define STING_CHAOS_FIRE(S) (::sting::chaos::fire(::sting::chaos::Site::S))
#else
#define STING_CHAOS_FIRE(S) (false)
#endif

#endif // STING_SUPPORT_CHAOS_H
