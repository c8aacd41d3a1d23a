// Out-of-core paging for the exploration engine (see DESIGN.md
// "Out-of-core exploration").
//
// Two building blocks, both backed by UNLINKED temporary files (O_TMPFILE
// where available, mkstemp+unlink otherwise), so no spill artifact can
// outlive the process -- not even across a crash:
//
//   Pager -- the cold tier of StateGraph's edge arenas. Chunks are
//   allocated as anonymous read-write mappings; when a chunk SEALS (the
//   arena moves on to a fresh chunk, after which the sealed chunk is
//   immutable by construction: committed runs never mutate and abandoned
//   reserved tails are never read), the pager writes its bytes to the
//   spill file and remaps the SAME address range read-only from the file
//   with MAP_FIXED. Every pointer into the chunk -- EdgeList views handed
//   out long ago -- stays valid, and reads observe bit-identical contents,
//   which is why determinism survives paging trivially. "Eviction" is
//   madvise(MADV_DONTNEED) on a cold mapping: the clean file-backed pages
//   leave the resident set and transparently refault from the file on the
//   next access, so the LRU below only bounds RSS, never correctness.
//
//   SpilledFrontier -- an external-memory FIFO of 64-bit work items (node
//   ids) for the BFS frontier. A bounded in-memory head and tail window
//   wrap a queue of fixed-size segments on disk; elements come back out in
//   exactly the order they went in, so a frontier that spills drains in
//   the same order as one that never did -- the explored graph stays
//   bit-identical.
//
// Both classes are single-threaded (StateGraph is single-writer). All
// counters are logical-event tallies, not page-fault counts, so they are
// deterministic for a deterministic caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <string>
#include <vector>

namespace boosting::analysis {

// Open an unlinked temporary file in `dir` ("" = $TMPDIR, else /tmp) and
// return its descriptor. The file has no name from the moment this
// returns, so its space is reclaimed when the descriptor closes (or the
// process dies). Throws std::runtime_error when the directory is unusable.
int openUnlinkedSpillFile(const std::string& dir);

class Pager {
 public:
  struct Config {
    std::uint64_t budgetBytes = 0;  // hot-tier budget (must be > 0)
    std::size_t chunkBytes = 0;     // payload bytes per chunk (must be > 0)
    std::string spillDir;           // "" = $TMPDIR, else /tmp
    // Test seams: make the Nth demote / eviction throw (1-based; 0 =
    // never). Exercises the abort paths without real I/O failures.
    std::uint64_t failDemoteAfter = 0;
    std::uint64_t failEvictAfter = 0;
  };

  struct Stats {
    std::uint64_t chunksCold = 0;   // sealed chunks demoted to the file
    std::uint64_t bytesOnDisk = 0;  // file bytes backing cold chunks
    std::uint64_t faults = 0;       // touches of an evicted cold chunk
    std::uint64_t evictions = 0;    // cold mappings dropped from the LRU
  };

  // Opens the spill file eagerly so an unusable spill directory fails the
  // run before any exploration work happens.
  explicit Pager(const Config& cfg);
  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  // A fresh page-aligned anonymous read-write chunk mapping. The pager
  // owns the mapping for its own lifetime (chunks never unmap before the
  // pager dies, so raw pointers into them stay valid throughout).
  void* allocChunk();

  // Demote a sealed chunk: write it to the spill file and replace the
  // anonymous mapping with a read-only file-backed one at the same
  // address. Returns the cold id (sequential in demote order). All-or-
  // nothing: on failure the chunk stays hot and writable and no counter
  // moves, so a caller that throws through this commits nothing.
  std::uint32_t demote(void* chunk);

  // LRU accounting for a read of cold chunk `coldId`: refault bookkeeping
  // if it was evicted, recency update otherwise; either way evictions keep
  // the resident cold set within the budget.
  void touchCold(std::uint32_t coldId);

  const Stats& stats() const { return stats_; }
  // Cold chunks currently tracked as resident (the LRU size); tests.
  std::size_t residentCold() const { return lru_.size(); }
  // Most cold mappings allowed to stay resident at once.
  std::size_t maxHotChunks() const { return maxHot_; }

 private:
  struct Cold {
    void* addr = nullptr;
    bool resident = false;
    std::list<std::uint32_t>::iterator lruIt;  // valid iff resident
  };

  void evictOverBudget();

  std::size_t mapBytes_ = 0;  // chunkBytes rounded up to the page size
  std::size_t maxHot_ = 0;
  std::uint64_t failDemoteAfter_ = 0;
  std::uint64_t failEvictAfter_ = 0;
  std::uint64_t demotes_ = 0;  // attempts, for the failure seam
  std::uint64_t evicts_ = 0;   // attempts, for the failure seam
  int fd_ = -1;
  std::vector<void*> mappings_;     // every chunk ever allocated
  std::vector<Cold> cold_;          // indexed by cold id
  std::list<std::uint32_t> lru_;    // resident cold ids, most recent first
  Stats stats_;
};

class SpilledFrontier {
 public:
  struct Stats {
    std::uint64_t segmentsSpilled = 0;
    std::uint64_t segmentsReloaded = 0;
    std::uint64_t entriesPeak = 0;  // high-water mark of size()
  };

  // spillThreshold 0 = never spill (a plain in-memory queue; the spill
  // file is never opened). Otherwise segments of `segmentEntries` items
  // move to disk whenever the total size exceeds the threshold. The file
  // opens lazily on the first spill.
  explicit SpilledFrontier(std::size_t spillThreshold = 0,
                           std::size_t segmentEntries = 4096,
                           std::string spillDir = {});
  ~SpilledFrontier();
  SpilledFrontier(const SpilledFrontier&) = delete;
  SpilledFrontier& operator=(const SpilledFrontier&) = delete;

  void push(std::uint64_t v);
  // FIFO pop; false when empty.
  bool pop(std::uint64_t* out);

  std::size_t size() const {
    return head_.size() + tail_.size() + diskEntries_;
  }
  bool empty() const { return size() == 0; }

  // Drop every pending entry, including on-disk segments (abort path).
  void clear();

  const Stats& stats() const { return stats_; }
  // On-disk entries right now; tests.
  std::size_t diskEntries() const { return diskEntries_; }

 private:
  void spillOneSegment();
  void reloadOldestSegment();

  std::size_t threshold_ = 0;
  std::size_t segEntries_ = 0;
  std::string dir_;
  std::deque<std::uint64_t> head_;  // oldest entries, popped first
  std::deque<std::uint64_t> tail_;  // newest entries
  std::deque<std::uint64_t> segOffsets_;  // file offsets, oldest first
  std::vector<std::uint64_t> freeOffsets_;  // reusable file slots
  std::size_t diskEntries_ = 0;
  std::uint64_t fileTail_ = 0;
  int fd_ = -1;
  Stats stats_;
};

}  // namespace boosting::analysis
