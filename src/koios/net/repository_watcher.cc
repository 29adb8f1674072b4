#include "koios/net/repository_watcher.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "koios/serve/snapshot.h"
#include "koios/util/fault_injector.h"
#include "koios/util/trace_recorder.h"

namespace koios::net {

RepositoryWatcher::RepositoryWatcher(std::string repository_path,
                                     EngineSlot* slot,
                                     util::MetricRegistry* registry,
                                     const WatcherOptions& options)
    : path_(std::move(repository_path)), slot_(slot), options_(options) {
  if (registry != nullptr) {
    struct Mirror {
      util::Counter* polls;
      util::Counter* poll_failures;
      util::Counter* changes;
      util::Counter* initial_loads;
      util::Counter* swaps;
      util::Counter* swap_failures;
    };
    Mirror m;
    m.polls = registry->RegisterCounter("koios_watch_polls_total",
                                        "Repository poll attempts");
    m.poll_failures = registry->RegisterCounter(
        "koios_watch_poll_failures_total",
        "Polls that failed to observe the file (stat error or injected "
        "watch.poll fault); never trigger a swap");
    m.changes = registry->RegisterCounter(
        "koios_watch_changes_detected_total",
        "Settled repository changes (debounced across two polls)");
    m.initial_loads = registry->RegisterCounter(
        "koios_watch_initial_loads_total",
        "First successful loads (the readiness flip)");
    m.swaps = registry->RegisterCounter("koios_watch_swaps_completed_total",
                                        "Hot swaps that landed");
    m.swap_failures = registry->RegisterCounter(
        "koios_watch_swap_failures_total",
        "Rejected loads/swaps (corrupt push; old snapshot kept serving)");
    registry->AddCollectionCallback([this, m] {
      const WatcherStats s = stats();
      m.polls->Set(s.polls);
      m.poll_failures->Set(s.poll_failures);
      m.changes->Set(s.changes_detected);
      m.initial_loads->Set(s.initial_loads);
      m.swaps->Set(s.swaps_completed);
      m.swap_failures->Set(s.swap_failures);
    });
  }
}

RepositoryWatcher::~RepositoryWatcher() { Stop(); }

void RepositoryWatcher::Start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      PollOnce();  // errors are counted and retried next interval
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_.wait_for(lock, options_.poll_interval, [this] {
        return stop_.load(std::memory_order_acquire);
      });
    }
  });
}

void RepositoryWatcher::Stop() {
  {
    // Store under wake_mutex_ so the notify cannot slip between the
    // waiter's predicate check and its block — a lost wakeup would delay
    // shutdown by a full poll interval.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

WatcherStats RepositoryWatcher::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

util::Status RepositoryWatcher::Stat(Fingerprint* out) const {
  struct stat st;
  if (::stat(path_.c_str(), &st) != 0) {
    return util::Status::NotFound("stat " + path_ + ": " +
                                  std::strerror(errno));
  }
  out->size = static_cast<int64_t>(st.st_size);
  out->mtime_sec = static_cast<int64_t>(st.st_mtim.tv_sec);
  out->mtime_nsec = static_cast<int64_t>(st.st_mtim.tv_nsec);
  out->inode = static_cast<uint64_t>(st.st_ino);
  out->valid = true;
  return util::Status::OK();
}

util::Status RepositoryWatcher::PollOnce() {
  std::lock_guard<std::mutex> poll_lock(poll_mutex_);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.polls;
  }
  // The fail-closed rule the fault sweep pins down: a failed poll counts
  // a failure and returns — it must never reach the load/swap path below.
  if (KOIOS_FAULTPOINT("watch.poll")) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.poll_failures;
    return util::Status::Internal("injected watch.poll fault");
  }
  Fingerprint fp;
  if (util::Status s = Stat(&fp); !s.ok()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.poll_failures;
    return s;
  }

  if (fp == served_) {
    candidate_ = fp;
    return util::Status::OK();
  }
  if (fp == rejected_) {
    // Known-bad bytes: don't reload the same corrupt push every poll.
    // A NEW change (different fingerprint) clears this naturally.
    return util::Status::OK();
  }
  // Debounce: act only when the fingerprint held still across two
  // consecutive polls, so a push caught mid-copy settles before loading.
  // The INITIAL load (no engine yet) skips the wait — the file the daemon
  // was pointed at is overwhelmingly already complete, and a truncated one
  // fails closed and retries when the fingerprint next changes.
  const bool settled = (fp == candidate_) || slot_->Get() == nullptr;
  candidate_ = fp;
  if (!settled) return util::Status::OK();

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.changes_detected;
  }
  util::Status status = LoadOrSwap();
  if (status.ok()) {
    served_ = fp;
  } else {
    rejected_ = fp;
  }
  return status;
}

util::StatusOr<std::string> RepositoryWatcher::SpoolToPrivateCopy() const {
  // The v4 load path serves straight out of an mmap of the file it was
  // given. Mapping the WATCHED path would hand the operator a foot-gun: a
  // push done with `cp` (or any in-place rewrite) truncates and rewrites
  // the same inode, and every resident page of the live mapping changes
  // under the serving snapshot — queries then walk poisoned offsets and
  // the process dies with SIGSEGV/SIGBUS. Atomic-rename pushes are still
  // the documented procedure, but the daemon must survive the other kind.
  //
  // So the watcher never maps the watched file: it spools the bytes to a
  // private same-directory copy, loads/maps THAT, and unlinks it at once.
  // The mapping keeps the unlinked inode alive, and nothing external can
  // reach it again. A push caught mid-write yields a torn copy, which the
  // eager CRC verify rejects — same fail-closed outcome as a corrupt push.
  const std::string spool_path =
      path_ + ".spool." + std::to_string(static_cast<long>(::getpid()));
  int in = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (in < 0) {
    return util::Status::NotFound("open " + path_ + ": " +
                                  std::strerror(errno));
  }
  int out = ::open(spool_path.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  if (out < 0) {
    const int err = errno;
    ::close(in);
    return util::Status::Internal("create spool " + spool_path + ": " +
                                  std::strerror(err));
  }
  util::Status status = util::Status::OK();
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(in, buf, sizeof buf);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      status = util::Status::Internal("read " + path_ + ": " +
                                      std::strerror(errno));
      break;
    }
    ssize_t off = 0;
    while (off < n) {
      ssize_t w = ::write(out, buf + off, static_cast<size_t>(n - off));
      if (w < 0) {
        if (errno == EINTR) continue;
        status = util::Status::Internal("write " + spool_path + ": " +
                                        std::strerror(errno));
        break;
      }
      off += w;
    }
    if (!status.ok()) break;
  }
  ::close(in);
  ::close(out);
  if (!status.ok()) {
    ::unlink(spool_path.c_str());
    return status;
  }
  return spool_path;
}

util::Status RepositoryWatcher::LoadOrSwap() {
  // Swap builds get their own (always-sampled) trace: they are rare,
  // expensive, and exactly what an operator looks for in /debug/tracez
  // when a push stalls serving.
  const uint64_t trace =
      util::TraceRecorder::Enabled()
          ? util::TraceRecorder::Instance().StartTraceForced()
          : 0;
  util::TraceAdopt adopt(trace, 0);
  KOIOS_TRACE_SPAN("watch.swap");
  util::StatusOr<std::string> spool = [&] {
    KOIOS_TRACE_SPAN("watch.spool_copy");
    return SpoolToPrivateCopy();
  }();
  if (!spool.ok()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.swap_failures;
    return spool.status();
  }
  const std::string& spool_path = spool.value();
  util::Status status = LoadOrSwapFrom(spool_path);
  // The snapshot's mmap (if the load succeeded) pins the unlinked inode;
  // the PATH disappears so no later push can scribble on serving memory.
  ::unlink(spool_path.c_str());
  return status;
}

util::Status RepositoryWatcher::LoadOrSwapFrom(const std::string& load_path) {
  std::shared_ptr<serve::QueryEngine> engine = slot_->Get();
  if (engine == nullptr) {
    // First load: same fail-closed bar as a swap — a v4 snapshot is
    // verified eagerly before it can become the readiness flip.
    util::StatusOr<std::shared_ptr<const serve::Snapshot>> snapshot = [&] {
      KOIOS_TRACE_SPAN("watch.initial_load");
      return serve::Snapshot::Load(load_path, /*verify=*/true);
    }();
    if (!snapshot.ok()) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.swap_failures;
      return snapshot.status();
    }
    KOIOS_TRACE_SPAN("watch.engine_build");
    auto built = std::make_shared<serve::QueryEngine>(
        std::move(snapshot).value(), options_.engine);
    slot_->Set(std::move(built));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.initial_loads;
    return util::Status::OK();
  }
  util::Status status = engine->TrySwapFromRepository(load_path);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (status.ok()) {
    ++stats_.swaps_completed;
  } else {
    ++stats_.swap_failures;
  }
  return status;
}

}  // namespace koios::net
