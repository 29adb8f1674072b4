// RepositoryWatcher — the daemon's zero-touch reload path. A background
// thread stats the repository file on an interval; when the file changes
// (and the change has SETTLED — same fingerprint on two consecutive polls,
// so a half-written push is not loaded mid-copy), it reloads:
//
//  * First successful load BUILDS the engine and installs it in the
//    EngineSlot — the moment the daemon's /readyz flips to 200.
//  * Subsequent changes go through QueryEngine::TrySwapFromRepository,
//    which is fail-closed end to end: a corrupt, truncated or
//    half-written file FAILS THE SWAP and the engine keeps answering
//    from the old snapshot (eager v4 verify included).
//
// Fail-closed rules the tests pin down:
//  * A failed poll (stat error, injected "watch.poll" fault) NEVER
//    triggers a swap — it only increments poll_failures.
//  * A fingerprint that failed to load is remembered: the watcher does
//    not re-attempt the same corrupt bytes every poll, only a NEW change
//    (and a daemon that starts against a corrupt repository stays unready
//    rather than crash-looping, retrying when the file is replaced).
//  * Serving memory NEVER aliases the watched inode: every load goes
//    through a private spool copy (unlinked once mapped), so a push done
//    with `cp` — an in-place rewrite of the same inode — cannot mutate
//    the bytes under the live snapshot's mmap. Atomic rename is still the
//    recommended push procedure; this makes the sloppy one survivable.
#ifndef KOIOS_NET_REPOSITORY_WATCHER_H_
#define KOIOS_NET_REPOSITORY_WATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "koios/net/engine_slot.h"
#include "koios/serve/query_engine.h"
#include "koios/util/metric_registry.h"
#include "koios/util/status.h"

namespace koios::net {

struct WatcherOptions {
  std::chrono::milliseconds poll_interval{500};
  /// Engine configuration applied when the FIRST load builds the engine.
  serve::EngineOptions engine;
};

/// Monotone watcher counters (snapshot; safe from any thread).
struct WatcherStats {
  uint64_t polls = 0;
  uint64_t poll_failures = 0;
  uint64_t changes_detected = 0;
  uint64_t initial_loads = 0;
  uint64_t swaps_completed = 0;
  uint64_t swap_failures = 0;
};

class RepositoryWatcher {
 public:
  /// `slot` receives the engine on first load (must outlive the watcher).
  /// `registry` (optional) gets the koios_watch_* metric family.
  RepositoryWatcher(std::string repository_path, EngineSlot* slot,
                    util::MetricRegistry* registry,
                    const WatcherOptions& options = {});
  ~RepositoryWatcher();

  RepositoryWatcher(const RepositoryWatcher&) = delete;
  RepositoryWatcher& operator=(const RepositoryWatcher&) = delete;

  /// Starts the polling thread. An initial load failure does NOT fail
  /// Start — the daemon comes up unready and keeps retrying on change.
  void Start();
  /// Stops and joins the thread. Idempotent.
  void Stop();

  /// One synchronous poll step — the unit the deterministic tests drive
  /// (no thread, no timing). Returns what the step did/saw:
  ///  * OK            — no settled change, or a settled change swapped in
  ///  * anything else — poll failed (faultpoint/stat) or the load/swap was
  ///                    rejected; in EVERY error case the served snapshot
  ///                    is untouched.
  util::Status PollOnce();

  WatcherStats stats() const;

 private:
  struct Fingerprint {
    int64_t size = -1;
    int64_t mtime_sec = 0;
    int64_t mtime_nsec = 0;
    uint64_t inode = 0;
    bool valid = false;
    bool operator==(const Fingerprint& other) const {
      return valid == other.valid && size == other.size &&
             mtime_sec == other.mtime_sec && mtime_nsec == other.mtime_nsec &&
             inode == other.inode;
    }
    bool operator!=(const Fingerprint& other) const {
      return !(*this == other);
    }
  };

  util::Status Stat(Fingerprint* out) const;
  /// Copies the watched file to an adjacent private spool file. The load
  /// path mmaps whatever file it is handed, and serving memory must never
  /// alias the watched inode: an in-place rewrite (`cp` over the path)
  /// would otherwise mutate the live mapping and crash the process. The
  /// spool copy is unlinked as soon as the load is done — the mapping
  /// keeps the inode alive, unreachable by any future push.
  util::StatusOr<std::string> SpoolToPrivateCopy() const;
  util::Status LoadOrSwap();
  util::Status LoadOrSwapFrom(const std::string& load_path);

  const std::string path_;
  EngineSlot* slot_;
  WatcherOptions options_;

  // Poll-step state (only PollOnce touches these; the thread serializes
  // through poll_mutex_ with direct test calls).
  std::mutex poll_mutex_;
  Fingerprint served_;     // fingerprint of the snapshot being served
  Fingerprint candidate_;  // last observed fingerprint (debounce step 1)
  Fingerprint rejected_;   // fingerprint that failed to load (don't retry)

  mutable std::mutex stats_mutex_;
  WatcherStats stats_;

  std::atomic<bool> stop_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::thread thread_;
};

}  // namespace koios::net

#endif  // KOIOS_NET_REPOSITORY_WATCHER_H_
