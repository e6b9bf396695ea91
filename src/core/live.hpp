// LiveCoverage — incrementally updatable, snapshot-consistent analyzer
// state for the serve daemon (and anything else that interleaves
// ingestion with queries).
//
// The batch pipeline's determinism contract (DESIGN.md §4, §10) is
// per-shard analysis + report-level merge: `iocov analyze DIR/` gives
// every file its own fresh filter + analyzer and merges the per-file
// reports, which is associative and commutative.  LiveCoverage keeps
// exactly that shape but makes it *online*: each pushed shard is
// analyzed in isolation and merged into an accumulator, so the state
// after any set of pushes equals a batch analyze of the same shards —
// bit-identically at the saved-report level — regardless of arrival
// order or interleaving.
//
// Consistency model (the epoch/seqlock idea without its torn-read
// hazard): writers serialize on a mutex, and after every push the full
// merged state is published as an immutable `shared_ptr<const
// Published>` tagged with the push epoch.  Readers grab the pointer
// under a narrow lock and then read freely — they always see a state
// that *was* current at some epoch boundary, never a half-merged
// histogram.  A query during ingest therefore returns the coverage of
// an exact prefix of the pushes applied so far.
//
// Shard names are deduplicated: re-pushing an already-consumed name is
// acknowledged and skipped.  That one rule makes crash recovery simple
// — after a daemon SIGKILL + `--resume`, producers just re-push
// everything and the merged result is unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/iocov.hpp"
#include "core/snapshot.hpp"
#include "trace/filter.hpp"

namespace iocov::core {

class LiveCoverage {
  public:
    /// One published consistent state: the merged coverage of the first
    /// `epoch` accepted pushes.  Immutable once published.
    struct Published {
        std::uint64_t epoch = 0;  ///< accepted pushes folded into `state`
        IOCovSnapshot state;
    };

    struct PushResult {
        bool accepted = false;     ///< false == duplicate name, skipped
        std::uint64_t epoch = 0;   ///< epoch after this push
        std::size_t dropped = 0;   ///< undecodable records in this shard
        std::uint64_t events = 0;  ///< events decoded from this shard
    };

    explicit LiveCoverage(trace::FilterConfig filter_config =
                              trace::FilterConfig::mount_point("/mnt/test"),
                          const std::vector<SyscallSpec>& registry =
                              syscall_registry());

    /// Analyzes one IOCT shard (empty filter state, exactly like one
    /// file of a batch dir ingest) and merges it in.  A name that
    /// was already consumed is skipped (accepted == false) — pushes are
    /// idempotent by name.  `n_threads` > 1 decodes the shard on the
    /// parallel path (bit-identical to serial).  Thread-safe.
    PushResult push(const std::string& name, std::string_view ioct,
                    unsigned n_threads = 1);

    /// The newest published consistent state.  Never null; epoch 0
    /// holds an empty snapshot.  Thread-safe, wait-free after the
    /// pointer grab.
    std::shared_ptr<const Published> read() const;

    std::uint64_t epoch() const { return read()->epoch; }

    /// Names of accepted pushes, in application order.  Thread-safe.
    std::vector<std::string> consumed() const;

    /// The merged coverage of pushes accepted since the previous
    /// take_delta() (or construction/restore), as a snapshot — the
    /// serve daemon's periodic IOCS delta artifact.  Merging every
    /// emitted delta reproduces the full state (snapshot algebra).
    /// Returns the number of pushes covered via `*pushes` (0 == empty
    /// delta).  Resets the delta accumulator.  Thread-safe.
    IOCovSnapshot take_delta(std::uint64_t* pushes = nullptr);

    /// Replaces all state with `state` (the merged coverage of
    /// `consumed_names`) — the `--resume` path.  The restored epoch is
    /// consumed_names.size(); subsequent duplicate pushes are skipped,
    /// so re-pushing the full shard set converges to the same report as
    /// an uninterrupted run.  Thread-safe.
    void restore(const IOCovSnapshot& state,
                 std::vector<std::string> consumed_names);

  private:
    std::unique_ptr<IOCov> fresh() const;
    void publish_locked();  ///< writer_mu_ must be held

    trace::FilterConfig filter_config_;
    const std::vector<SyscallSpec>* registry_;

    mutable std::mutex writer_mu_;  ///< serializes push/take_delta/restore
    std::unique_ptr<IOCov> acc_;    ///< full merged state
    std::unique_ptr<IOCov> delta_;  ///< merged state since last take_delta
    std::uint64_t delta_pushes_ = 0;
    std::unordered_set<std::string> seen_;
    std::vector<std::string> order_;

    mutable std::mutex pub_mu_;  ///< guards only the pointer swap/grab
    std::shared_ptr<const Published> published_;
};

}  // namespace iocov::core
