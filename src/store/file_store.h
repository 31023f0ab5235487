// Durable StateStore backend: sealed append-only journal + atomic
// snapshot compaction + modeled monotonic hardware counter.
//
// On-medium layout (one directory per store):
//
//   journal.bin    a sequence of commit frames. Each frame carries its
//                  generation, the transaction's ops, and an HMAC-SHA1
//                  tag under the storage key. Appended (and flushed)
//                  BEFORE the commit returns.
//   snapshot.bin   the full record map at some generation, sealed as one
//                  unit. Rewritten atomically (temp file + rename) when
//                  the journal grows past Options::compact_after_bytes;
//                  journal frames at or below the snapshot generation are
//                  folded in and the journal is truncated.
//   counter.bin    the rollback guard: one sealed 36-byte record modeling
//                  the terminal's monotonic hardware counter (fuse bank /
//                  RPMB in a real device, which is why its own rollback is
//                  outside the threat model here). load() creates it, at
//                  0, for an empty store (atomic replace); every commit
//                  then bumps it in place: one pwrite at offset 0 on a
//                  kept-open fd, plus fdatasync in the durable tier. A
//                  loaded image whose highest generation is below the
//                  counter is a replayed stale snapshot -> kStoreRollback.
//
// The in-place bump is atomic: process death cannot tear a 36-byte pwrite
// (it is whole in the page cache); a record under 512 bytes at offset 0
// lies in one sector, whose write power loss does not split (the
// assumption PostgreSQL's pg_control makes); and a record torn anyway
// fails its seal, so load() fails closed with kStoreSealBroken and never
// grants a refund.
//
// Commit ordering gives the crash-safety guarantee: frame append+flush,
// then counter bump, then the in-RAM apply — two flushes, and no file
// created or renamed. A crash mid-append leaves a torn tail whose commit
// never returned (the caller never delivered the grant), so dropping it
// on recovery can lose an undelivered grant but never refund a delivered
// one. A crash between append and counter bump (the first commit
// included: the counter predates it) leaves the journal exactly one
// generation ahead of the counter, which load() accepts (conservative:
// the burn is kept) and repairs.
//
// load() fails closed with distinct codes: kStoreCorrupt for structural
// truncation (including a torn tail, unless Options::recover_torn_tail
// opts into dropping it), kStoreSealBroken for any MAC failure, and
// kStoreRollback for a generation regression.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "store/state_store.h"

namespace omadrm::store {

class FileStore final : public StateStore {
 public:
  struct Options {
    /// Journal size that triggers snapshot compaction after a commit.
    std::size_t compact_after_bytes = 64 * 1024;
    /// Recovery policy for an incomplete trailing journal frame (the
    /// power-loss-mid-append artifact). Default is fail-closed
    /// (kStoreCorrupt); a reboot path that has decided the medium is its
    /// own (not an attacker's splice) opts in to dropping the torn tail.
    bool recover_torn_tail = false;
    /// fsync journal appends and snapshot renames, fdatasync counter
    /// bumps. Off trades durability-against-power-loss for speed (still
    /// durable against process death); benchmarks measure both.
    bool durable_fsync = true;
  };

  /// `directory` is created if missing. `storage_key` seals every frame,
  /// snapshot, and counter record (derive_storage_key(K_DEV) for an
  /// agent's store). Construction does no I/O; the first load()/commit()
  /// touches the medium.
  FileStore(std::string directory, Bytes storage_key, Options options);
  FileStore(std::string directory, Bytes storage_key);  // default Options
  ~FileStore() override;

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  Result<> commit(const Transaction& tx) override;
  Result<std::vector<Record>> load() override;
  std::uint64_t generation() const override { return generation_; }

  /// Folds the journal into a fresh sealed snapshot and truncates it.
  /// Called automatically past compact_after_bytes; public for tests and
  /// benchmarks.
  Result<> compact();

  std::size_t journal_bytes() const { return journal_size_; }

  /// Crash injection (tests): after `n` more journal bytes are written,
  /// the append stops mid-frame and the commit fails — byte-accurate
  /// power-loss simulation. The torn file is left for a reloader to find.
  void set_journal_fault_after(std::size_t n) {
    fault_armed_ = true;
    fault_budget_ = n;
  }

 private:
  Result<> ensure_loaded();
  Result<> append_journal(ByteView frame);
  Result<> write_counter(std::uint64_t value);
  Result<> read_counter(bool& present, std::uint64_t& value) const;
  Result<> read_snapshot(std::uint64_t& snapshot_generation);
  Result<> replay_journal(std::uint64_t snapshot_generation,
                          std::uint64_t& last_generation);
  void apply(const Transaction& tx);
  std::string path(const char* file) const;

  std::string directory_;
  Bytes storage_key_;
  Options options_;

  std::map<std::string, Bytes, std::less<>> records_;
  std::uint64_t generation_ = 0;
  std::size_t journal_size_ = 0;
  int journal_fd_ = -1;
  int counter_fd_ = -1;  // in-place counter bumps, opened by load()
  bool loaded_ = false;

  bool fault_armed_ = false;
  std::size_t fault_budget_ = 0;
};

}  // namespace omadrm::store
