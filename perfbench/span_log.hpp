// In-memory span log for the layer replay.
//
// The replay wraps every call into a library layer in a span recorded here,
// in the benchmark's own code: master-thread spans for calls made on the
// driving thread, and one worker span per thread for calls made inside
// ThreadPool::run_spmd. Spans stay in memory until the run ends; the
// per-layer metrics are aggregates over them, and --trace-out writes them as
// Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace smpbench {

struct Span {
  const char* name = "";       ///< "<layer>.<call>", static storage
  std::uint32_t k = 0;         ///< mining level (1 for F1, 0 outside levels)
  std::int32_t tid = -1;       ///< run_spmd worker, or -1 for the master
  std::int32_t parent = -1;    ///< enclosing master span, -1 at top level
  std::uint64_t t0 = 0;        ///< ns since the log was created
  std::uint64_t t1 = 0;
  std::uint64_t work = 0;      ///< units handled by the call (see replay.cpp)
  /// Master span whose call fans out to the pool (not single-threaded).
  bool parallel = false;
  /// Measurement scaffolding (shadow kernels, checks), outside replay time.
  bool excluded = false;

  double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t threads) : workers_(threads) {}

  std::uint64_t now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// RAII master span; nests under the innermost open master span.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint32_t k, bool parallel,
          bool excluded = false)
        : log_(log), idx_(log.master_.size()) {
      Span s;
      s.name = name;
      s.k = k;
      s.parent = log.open_;
      s.parallel = parallel;
      s.excluded = excluded || (s.parent >= 0 && log.master_[s.parent].excluded);
      s.t0 = log.now();
      log.master_.push_back(s);
      log.open_ = static_cast<std::int32_t>(idx_);
    }
    ~Scope() {
      Span& s = log_.master_[idx_];
      s.t1 = log_.now();
      log_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void work(std::uint64_t w) { log_.master_[idx_].work = w; }
    /// Position in master(); the span's seconds are final once it closes.
    std::size_t index() const { return idx_; }

   private:
    SpanLog& log_;
    std::size_t idx_;
  };

  /// Times `fn()` on pool worker `tid` (inside a run_spmd body); `fn`
  /// returns the work units it handled. Each worker appends only to its
  /// own vector; the open master span is read-only while the pool runs.
  template <class F>
  void worker(std::uint32_t tid, const char* name, std::uint32_t k, F&& fn) {
    Span s;
    s.name = name;
    s.k = k;
    s.tid = static_cast<std::int32_t>(tid);
    s.parent = open_;
    s.excluded = open_ >= 0 && master_[open_].excluded;
    s.t0 = now();
    s.work = fn();
    s.t1 = now();
    workers_[tid].push_back(s);
  }

  const std::vector<Span>& master() const { return master_; }
  const std::vector<std::vector<Span>>& workers() const { return workers_; }

  /// Chrome trace-event JSON (one "X" event per span, track per thread).
  void save_chrome_trace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> master_;
  std::vector<std::vector<Span>> workers_;
  std::int32_t open_ = -1;
};

}  // namespace smpbench
