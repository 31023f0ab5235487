#include "store/file_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/failpoint.h"
#include "crypto/hmac.h"

namespace omadrm::store {

namespace {

constexpr const char* kJournalFile = "journal.bin";
constexpr const char* kSnapshotFile = "snapshot.bin";
constexpr const char* kCounterFile = "counter.bin";

// Magics pin the file kind so a snapshot can never be fed to the counter
// parser (and vice versa) even before the MAC is checked.
constexpr char kSnapshotMagic[8] = {'O', 'M', 'D', 'S', 'N', 'A', 'P', '1'};
constexpr char kCounterMagic[8] = {'O', 'M', 'D', 'C', 'N', 'T', 'R', '1'};

constexpr std::size_t kTagSize = crypto::HmacSha1::kDigestSize;
constexpr std::size_t kCounterFileSize = 8 + 8 + kTagSize;

std::string errno_context(const char* what) {
  return std::string("file store: ") + what + ": " + std::strerror(errno);
}

Result<> io_fail(const char* what) {
  return Result<>(StatusCode::kStoreFailure, errno_context(what));
}

/// Evaluates a failpoint site; crash mode dies here, error mode returns
/// the simulated errno (already stored into `errno` so io_fail's
/// strerror reports the injected cause — EIO vs ENOSPC stays visible).
bool injected_failure(const char* site) {
  if (site == nullptr) return false;  // ungated step
  const int err = failpoint::check(site);
  if (err == 0) return false;
  errno = err;
  return true;
}

/// The four failpoint sites of one atomic_replace call chain, as static
/// literals so the production path never builds site-name strings. A
/// default-constructed (all-null) table leaves the replace ungated.
struct ReplaceSites {
  const char* open = nullptr;
  const char* write = nullptr;
  const char* fsync = nullptr;
  const char* rename = nullptr;
};

constexpr ReplaceSites kSnapshotReplaceSites{
    "store.snapshot.replace.open", "store.snapshot.replace.write",
    "store.snapshot.replace.fsync", "store.snapshot.replace.rename"};

/// Seals `payload` under `key` with a one-byte domain-separation prefix
/// ('J' journal frame, 'S' snapshot, 'C' counter) so a valid tag from one
/// file kind can never authenticate bytes of another.
std::array<std::uint8_t, kTagSize> seal_tag(ByteView key, char domain,
                                            ByteView payload) {
  crypto::HmacSha1 h(key);
  const std::uint8_t d = static_cast<std::uint8_t>(domain);
  h.update(ByteView(&d, 1));
  h.update(payload);
  std::array<std::uint8_t, kTagSize> tag;
  h.finish_into(tag.data());
  return tag;
}

bool check_tag(ByteView key, char domain, ByteView payload, ByteView tag) {
  return ct_equal(seal_tag(key, domain, payload), tag);
}

/// The sealed counter record: magic, big-endian value, 'C' tag.
std::array<std::uint8_t, kCounterFileSize> counter_record(
    ByteView key, std::uint64_t value) {
  std::array<std::uint8_t, kCounterFileSize> rec;
  std::memcpy(rec.data(), kCounterMagic, 8);
  store_be64(value, rec.data() + 8);
  const auto tag = seal_tag(key, 'C', ByteView(rec.data(), 16));
  std::memcpy(rec.data() + 16, tag.data(), kTagSize);
  return rec;
}

/// Reads a whole file; `present` is false (with empty `out`) on ENOENT.
Result<> read_file(const std::string& file_path, bool& present, Bytes& out) {
  present = false;
  out.clear();
  int fd = ::open(file_path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Result<>();
    return io_fail("open for read");
  }
  present = true;
  std::uint8_t buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return io_fail("read");
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return Result<>();
}

Result<> write_fully(int fd, ByteView data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // nofailpoint: shared raw-write helper; every caller gates it behind
    // its own site (store.journal.write, *.replace.write).
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_fail("write");
    }
    off += static_cast<std::size_t>(n);
  }
  return Result<>();
}

Result<> pwrite_fully(int fd, ByteView data, off_t offset) {
  std::size_t off = 0;
  while (off < data.size()) {
    // nofailpoint: gated by the caller's store.counter.pwrite site.
    ssize_t n = ::pwrite(fd, data.data() + off, data.size() - off,
                         offset + static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_fail("pwrite");
    }
    off += static_cast<std::size_t>(n);
  }
  return Result<>();
}

/// Atomically replaces `final_path` with `data`: temp write (+fsync when
/// `durable`), rename over the target, directory fsync. A crash leaves
/// either the old file or the new one, never a torn mix.
Result<> atomic_replace(const std::string& directory,
                        const std::string& final_path, ByteView data,
                        bool durable, const ReplaceSites& sites) {
  const std::string tmp = final_path + ".tmp";
  if (injected_failure(sites.open)) return io_fail("open temp for replace");
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0600);
  if (fd < 0) return io_fail("open temp for replace");
  Result<> w = injected_failure(sites.write) ? io_fail("write temp")
                                             : write_fully(fd, data);
  if (w.ok() && durable) {
    if (injected_failure(sites.fsync) || ::fsync(fd) != 0) {
      w = io_fail("fsync temp for replace");
    }
  }
  ::close(fd);
  if (!w.ok()) {
    ::unlink(tmp.c_str());
    return w;
  }
  if (injected_failure(sites.rename) ||
      ::rename(tmp.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return io_fail("rename over target");
  }
  if (durable) {
    int dirfd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirfd >= 0) {
      // nofailpoint: best-effort directory-entry fsync after the rename
      // already succeeded; a crash here replays as the (complete) new
      // file or the (complete) old one — no torn state to inject into.
      ::fsync(dirfd);
      ::close(dirfd);
    }
  }
  return Result<>();
}

}  // namespace

FileStore::FileStore(std::string directory, Bytes storage_key,
                     Options options)
    : directory_(std::move(directory)),
      storage_key_(std::move(storage_key)),
      options_(options) {}

FileStore::FileStore(std::string directory, Bytes storage_key)
    : FileStore(std::move(directory), std::move(storage_key), Options()) {}

FileStore::~FileStore() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
  if (counter_fd_ >= 0) ::close(counter_fd_);
}

std::string FileStore::path(const char* file) const {
  return directory_ + "/" + file;
}

Result<> FileStore::ensure_loaded() {
  if (loaded_) return Result<>();
  Result<std::vector<Record>> r = load();
  if (!r.ok()) return Result<>(r.code(), r.context());
  return Result<>();
}

// ---------------------------------------------------------------------------
// Commit path
// ---------------------------------------------------------------------------

Result<> FileStore::append_journal(ByteView frame) {
  ByteView to_write = frame;
  bool inject_fault = false;
  if (fault_armed_) {
    if (frame.size() > fault_budget_) {
      // Power loss mid-append: only the budgeted prefix reaches the
      // medium, and the store goes dead until a reload recovers the
      // tail. One-shot — after the reload, commits work again.
      to_write = frame.subspan(0, fault_budget_);
      fault_budget_ = 0;
      fault_armed_ = false;
      inject_fault = true;
    } else {
      fault_budget_ -= frame.size();
    }
  }
  const failpoint::Action fp = failpoint::fire("store.journal.write");
  if (fp.op == failpoint::Op::kError) {
    errno = fp.err;
    return io_fail("journal append");
  }
  if (fp.op == failpoint::Op::kCrash) {
    // Crash mid-append: half the frame reaches the fd, then the process
    // dies — the torn-tail artifact Options::recover_torn_tail exists
    // for, now producible in a real child process instead of only via
    // the byte-budget hook.
    (void)!::write(journal_fd_, to_write.data(), to_write.size() / 2);
    failpoint::crash_now();
  }
  if (Result<> r = write_fully(journal_fd_, to_write); !r.ok()) return r;
  if (options_.durable_fsync) {
    if (injected_failure("store.journal.fsync") ||
        ::fsync(journal_fd_) != 0) {
      return io_fail("fsync journal");
    }
  }
  journal_size_ += to_write.size();
  if (inject_fault) {
    loaded_ = false;  // no further commits until a reload recovers the tail
    return Result<>(StatusCode::kStoreFailure,
                    "file store: injected power loss mid-append");
  }
  return Result<>();
}

Result<> FileStore::write_counter(std::uint64_t value) {
  // In place on the fd load() opened; the header argues why it cannot tear.
  const auto rec = counter_record(storage_key_, value);
  if (injected_failure("store.counter.pwrite")) return io_fail("counter pwrite");
  if (Result<> r = pwrite_fully(counter_fd_, rec, 0); !r.ok()) return r;
  if (options_.durable_fsync && (injected_failure("store.counter.fdatasync") ||
                                 ::fdatasync(counter_fd_) != 0)) {
    return io_fail("fdatasync counter");
  }
  return Result<>();
}

void FileStore::apply(const Transaction& tx) {
  for (const Transaction::Op& op : tx.ops()) {
    switch (op.kind) {
      case Transaction::Op::kPut:
        records_[op.key] = op.value;
        break;
      case Transaction::Op::kErase:
        records_.erase(op.key);
        break;
      case Transaction::Op::kClear:
        records_.clear();
        break;
    }
  }
}

Result<> FileStore::commit(const Transaction& tx) {
  if (Result<> r = ensure_loaded(); !r.ok()) return r;
  if (tx.empty()) return Result<>();

  const std::uint64_t next = generation_ + 1;
  Bytes body;
  append_be64(body, next);
  append_be32(body, static_cast<std::uint32_t>(tx.ops().size()));
  for (const Transaction::Op& op : tx.ops()) {
    body.push_back(static_cast<std::uint8_t>(op.kind));
    append_be32(body, static_cast<std::uint32_t>(op.key.size()));
    body.insert(body.end(), op.key.begin(), op.key.end());
    if (op.kind == Transaction::Op::kPut) {
      append_be32(body, static_cast<std::uint32_t>(op.value.size()));
      body.insert(body.end(), op.value.begin(), op.value.end());
    }
  }
  Bytes frame;
  frame.reserve(4 + body.size() + kTagSize);
  append_be32(frame, static_cast<std::uint32_t>(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  // The tag covers the length prefix too, so a frame cannot be re-framed.
  auto tag = seal_tag(storage_key_, 'J', frame);
  frame.insert(frame.end(), tag.begin(), tag.end());

  // Durability order (header): frame, counter bump, in-RAM apply. Any
  // write failure (injected or real — ENOSPC, EIO) leaves the journal in
  // an unknown on-medium state: a partially appended frame, or a complete
  // frame whose counter bump is missing. Accepting further commits on top
  // would corrupt the image permanently (torn bytes in the middle,
  // duplicate generations), so the store goes dead until a load()
  // re-derives the truth from the medium — which also repairs the
  // journal-one-ahead-of-counter case.
  if (Result<> r = append_journal(frame); !r.ok()) {
    loaded_ = false;
    return r;
  }
  if (Result<> r = write_counter(next); !r.ok()) {
    loaded_ = false;
    return r;
  }
  apply(tx);
  generation_ = next;

  if (journal_size_ > options_.compact_after_bytes) {
    // Best-effort: the ops above are already durable, so a failed
    // compaction must not report this commit as failed (the caller would
    // refund in RAM what the medium has burned). The next commit retries.
    (void)compact();
  }
  return Result<>();
}

Result<> FileStore::compact() {
  if (!loaded_) {
    return Result<>(StatusCode::kStoreFailure,
                    "file store: compact before load");
  }
  Bytes data;
  data.insert(data.end(), kSnapshotMagic, kSnapshotMagic + 8);
  append_be64(data, generation_);
  append_be32(data, static_cast<std::uint32_t>(records_.size()));
  for (const auto& [key, value] : records_) {
    append_be32(data, static_cast<std::uint32_t>(key.size()));
    data.insert(data.end(), key.begin(), key.end());
    append_be32(data, static_cast<std::uint32_t>(value.size()));
    data.insert(data.end(), value.begin(), value.end());
  }
  auto tag = seal_tag(storage_key_, 'S', data);
  data.insert(data.end(), tag.begin(), tag.end());

  if (Result<> r = atomic_replace(directory_, path(kSnapshotFile), data,
                                  options_.durable_fsync,
                                  kSnapshotReplaceSites);
      !r.ok()) {
    return r;
  }
  // Only after the snapshot is durably in place may the journal shrink; a
  // crash in between just leaves folded frames that load() skips.
  if (injected_failure("store.compact.truncate") ||
      ::ftruncate(journal_fd_, 0) != 0) {
    return io_fail("truncate journal");
  }
  journal_size_ = 0;
  if (options_.durable_fsync) {
    if (injected_failure("store.compact.fsync") ||
        ::fsync(journal_fd_) != 0) {
      return io_fail("fsync truncated journal");
    }
  }
  return Result<>();
}

// ---------------------------------------------------------------------------
// Load path
// ---------------------------------------------------------------------------

Result<> FileStore::read_counter(bool& present, std::uint64_t& value) const {
  Bytes data;
  if (Result<> r = read_file(path(kCounterFile), present, data); !r.ok()) {
    return r;
  }
  if (!present) return Result<>();
  if (data.size() != kCounterFileSize) {
    return Result<>(StatusCode::kStoreCorrupt,
                    "file store: counter file truncated");
  }
  if (std::memcmp(data.data(), kCounterMagic, 8) != 0) {
    return Result<>(StatusCode::kStoreCorrupt,
                    "file store: counter magic mismatch");
  }
  ByteView payload = ByteView(data).subspan(0, 16);
  ByteView tag = ByteView(data).subspan(16, kTagSize);
  if (!check_tag(storage_key_, 'C', payload, tag)) {
    return Result<>(StatusCode::kStoreSealBroken,
                    "file store: counter seal rejected");
  }
  value = load_be64(data.data() + 8);
  return Result<>();
}

Result<> FileStore::read_snapshot(std::uint64_t& snapshot_generation) {
  snapshot_generation = 0;
  bool present = false;
  Bytes data;
  if (Result<> r = read_file(path(kSnapshotFile), present, data); !r.ok()) {
    return r;
  }
  if (!present) return Result<>();
  if (data.size() < 8 + 8 + 4 + kTagSize) {
    return Result<>(StatusCode::kStoreCorrupt,
                    "file store: snapshot truncated");
  }
  if (std::memcmp(data.data(), kSnapshotMagic, 8) != 0) {
    return Result<>(StatusCode::kStoreCorrupt,
                    "file store: snapshot magic mismatch");
  }
  ByteView payload = ByteView(data).first(data.size() - kTagSize);
  ByteView tag = ByteView(data).last(kTagSize);
  if (!check_tag(storage_key_, 'S', payload, tag)) {
    return Result<>(StatusCode::kStoreSealBroken,
                    "file store: snapshot seal rejected");
  }

  ByteReader c{payload.subspan(8)};
  std::uint64_t gen = 0;
  std::uint32_t count = 0;
  if (!c.take_u64(gen) || !c.take_u32(count)) {
    return Result<>(StatusCode::kStoreCorrupt,
                    "file store: snapshot header short");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t klen = 0, vlen = 0;
    ByteView key, value;
    if (!c.take_u32(klen) || !c.take_bytes(klen, key) ||
        !c.take_u32(vlen) || !c.take_bytes(vlen, value)) {
      return Result<>(StatusCode::kStoreCorrupt,
                      "file store: snapshot record malformed");
    }
    records_[std::string(key.begin(), key.end())] =
        Bytes(value.begin(), value.end());
  }
  if (c.remaining() != 0) {
    return Result<>(StatusCode::kStoreCorrupt,
                    "file store: snapshot trailing bytes");
  }
  snapshot_generation = gen;
  return Result<>();
}

Result<> FileStore::replay_journal(std::uint64_t snapshot_generation,
                                   std::uint64_t& last_generation) {
  bool present = false;
  Bytes data;
  if (Result<> r = read_file(path(kJournalFile), present, data); !r.ok()) {
    return r;
  }
  journal_size_ = data.size();
  if (!present || data.empty()) return Result<>();

  ByteReader c{ByteView(data)};
  while (c.remaining() > 0) {
    const std::size_t frame_start = c.pos;
    std::uint32_t body_len = 0;
    ByteView body, tag;
    if (!c.take_u32(body_len) || !c.take_bytes(body_len, body) ||
        !c.take_bytes(kTagSize, tag)) {
      // Incomplete trailing frame — the power-loss-mid-append artifact.
      // Its commit() never returned, so no grant rode on it; dropping it
      // is safe once the caller opted into recovery. Fail closed
      // otherwise.
      if (!options_.recover_torn_tail) {
        return Result<>(StatusCode::kStoreCorrupt,
                        "file store: journal truncated mid-frame");
      }
      // nofailpoint: torn-tail repair during load, before any traffic.
      // Recovery is idempotent — a crash mid-repair leaves a (shorter)
      // torn tail the next load repairs again; the crash matrix covers
      // the append side that creates these tails via store.journal.write.
      int fd = ::open(path(kJournalFile).c_str(), O_WRONLY | O_CLOEXEC);
      if (fd < 0) return io_fail("open journal for tail repair");
      int rc = ::ftruncate(fd, static_cast<off_t>(frame_start));
      if (rc == 0 && options_.durable_fsync) rc = ::fsync(fd);
      ::close(fd);
      if (rc != 0) return io_fail("truncate torn journal tail");
      journal_size_ = frame_start;
      break;
    }
    ByteView framed = ByteView(data).subspan(frame_start, 4 + body_len);
    if (!check_tag(storage_key_, 'J', framed, tag)) {
      return Result<>(StatusCode::kStoreSealBroken,
                      "file store: journal frame seal rejected");
    }

    ByteReader b{body};
    std::uint64_t gen = 0;
    std::uint32_t op_count = 0;
    if (!b.take_u64(gen) || !b.take_u32(op_count)) {
      return Result<>(StatusCode::kStoreCorrupt,
                      "file store: journal frame header short");
    }
    const bool fold = gen <= snapshot_generation;  // already in snapshot
    if (!fold && gen != last_generation + 1) {
      return Result<>(StatusCode::kStoreCorrupt,
                      "file store: journal generation gap");
    }
    for (std::uint32_t i = 0; i < op_count; ++i) {
      std::uint8_t kind_byte = 0;
      {
        ByteView kb;
        if (!b.take_bytes(1, kb)) {
          return Result<>(StatusCode::kStoreCorrupt,
                          "file store: journal op truncated");
        }
        kind_byte = kb[0];
      }
      std::uint32_t klen = 0;
      ByteView key;
      if (!b.take_u32(klen) || !b.take_bytes(klen, key)) {
        return Result<>(StatusCode::kStoreCorrupt,
                        "file store: journal op key malformed");
      }
      switch (kind_byte) {
        case Transaction::Op::kPut: {
          std::uint32_t vlen = 0;
          ByteView value;
          if (!b.take_u32(vlen) || !b.take_bytes(vlen, value)) {
            return Result<>(StatusCode::kStoreCorrupt,
                            "file store: journal op value malformed");
          }
          if (!fold) {
            records_[std::string(key.begin(), key.end())] =
                Bytes(value.begin(), value.end());
          }
          break;
        }
        case Transaction::Op::kErase:
          if (!fold) records_.erase(std::string(key.begin(), key.end()));
          break;
        case Transaction::Op::kClear:
          if (!fold) records_.clear();
          break;
        default:
          return Result<>(StatusCode::kStoreCorrupt,
                          "file store: unknown journal op kind");
      }
    }
    if (b.remaining() != 0) {
      return Result<>(StatusCode::kStoreCorrupt,
                      "file store: journal frame trailing bytes");
    }
    if (!fold) last_generation = gen;
  }
  return Result<>();
}

Result<std::vector<Record>> FileStore::load() {
  using Out = std::vector<Record>;
  loaded_ = false;
  records_.clear();
  generation_ = 0;
  journal_size_ = 0;
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  if (counter_fd_ >= 0) {
    ::close(counter_fd_);
    counter_fd_ = -1;
  }

  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    return Result<Out>(StatusCode::kStoreFailure,
                       "file store: cannot create " + directory_ + ": " +
                           ec.message());
  }

  bool counter_present = false;
  std::uint64_t counter = 0;
  if (Result<> r = read_counter(counter_present, counter); !r.ok()) {
    return propagate<Out>(r);
  }
  std::uint64_t snapshot_generation = 0;
  if (Result<> r = read_snapshot(snapshot_generation); !r.ok()) {
    return propagate<Out>(r);
  }
  std::uint64_t last = snapshot_generation;
  if (Result<> r = replay_journal(snapshot_generation, last); !r.ok()) {
    return propagate<Out>(r);
  }

  // Rollback detection against the modeled monotonic hardware counter.
  if (!counter_present) {
    if (last != 0) {
      return Result<Out>(StatusCode::kStoreRollback,
                         "file store: monotonic counter missing for "
                         "non-empty store");
    }
    // An empty store gets its counter before any commit. Ungated: a crash
    // here leaves an empty store that the next load() creates it for.
    if (Result<> r = atomic_replace(directory_, path(kCounterFile),
                                    counter_record(storage_key_, 0),
                                    options_.durable_fsync, ReplaceSites{});
        !r.ok()) {
      return propagate<Out>(r);
    }
  } else if (last < counter) {
    return Result<Out>(
        StatusCode::kStoreRollback,
        "file store: state at generation " + std::to_string(last) +
            " but counter demands " + std::to_string(counter));
  } else if (last > counter + 1) {
    // The counter bump follows every append; it can lag by at most the
    // one in-flight commit. Further ahead means the counter was rolled
    // back — the same attack class as a stale snapshot.
    return Result<Out>(StatusCode::kStoreRollback,
                       "file store: counter behind journal by more than "
                       "one commit");
  }

  if (injected_failure("store.load.open")) {
    return propagate<Out>(io_fail("open journal"));
  }
  counter_fd_ = ::open(path(kCounterFile).c_str(), O_RDWR | O_CLOEXEC);
  if (counter_fd_ < 0) return propagate<Out>(io_fail("open counter"));
  journal_fd_ = ::open(path(kJournalFile).c_str(),
                       O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0600);
  if (journal_fd_ < 0) return propagate<Out>(io_fail("open journal"));

  if (last == counter + 1) {
    // Crash between frame flush and counter bump: the burn is kept
    // (conservative — it may never have been delivered) and the counter
    // repaired.
    if (Result<> r = write_counter(last); !r.ok()) return propagate<Out>(r);
  }
  generation_ = last;
  loaded_ = true;

  Out out;
  out.reserve(records_.size());
  for (const auto& [key, value] : records_) {
    out.push_back(Record{key, value});
  }
  return Result<Out>(std::move(out));
}

}  // namespace omadrm::store
