// Secure-storage subsystem tests: StateStore backends, the FileStore's
// corruption / rollback / power-loss behaviour, and the end-to-end
// crash-safety contract — a stateful constraint burn committed before
// open_content returns can never be refunded by killing and reloading
// the agent, and a tampered or stale store image is rejected on load
// with a distinct StatusCode.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>

#include "agent/drm_agent.h"
#include "agent/sessions.h"
#include "ci/content_issuer.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "pki/authority.h"
#include "provider/provider.h"
#include "ri/rights_issuer.h"
#include "roap/envelope.h"
#include "roap/transport.h"
#include "store/file_store.h"
#include "store/memory_store.h"
#include "store/state_store.h"

namespace omadrm {
namespace {

using agent::AgentStatus;
using agent::DrmAgent;
using store::FileStore;
using store::MemoryStore;
using store::Record;
using store::Transaction;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("omadrm_store_" + tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  std::string file(const char* name) const { return (path / name).string(); }
};

Bytes test_key() { return store::derive_storage_key(to_bytes("unit-kdev")); }

FileStore::Options fast_options() {
  FileStore::Options o;
  o.durable_fsync = false;  // tmpfs-friendly; durability logic unchanged
  return o;
}

Bytes read_file_bytes(const std::string& p) {
  std::ifstream f(p, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& p, const Bytes& data) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
}

void flip_byte(const std::string& p, std::size_t offset) {
  Bytes data = read_file_bytes(p);
  ASSERT_LT(offset, data.size());
  data[offset] ^= 0x40;
  write_file_bytes(p, data);
}

void truncate_by(const std::string& p, std::size_t bytes) {
  Bytes data = read_file_bytes(p);
  ASSERT_GE(data.size(), bytes);
  data.resize(data.size() - bytes);
  write_file_bytes(p, data);
}

std::map<std::string, Bytes> as_map(const std::vector<Record>& records) {
  std::map<std::string, Bytes> out;
  for (const Record& r : records) out[r.key] = r.value;
  return out;
}

// ---------------------------------------------------------------------------
// MemoryStore
// ---------------------------------------------------------------------------

TEST(MemoryStoreTest, CommitLoadRoundTrip) {
  MemoryStore s;
  EXPECT_EQ(s.generation(), 0u);
  Transaction tx;
  tx.put("a", to_bytes("alpha")).put("b", to_bytes("beta"));
  ASSERT_TRUE(s.commit(tx).ok());
  EXPECT_EQ(s.generation(), 1u);

  Transaction tx2;
  tx2.erase("a").put("c", to_bytes("gamma"));
  ASSERT_TRUE(s.commit(tx2).ok());

  auto loaded = s.load();
  ASSERT_TRUE(loaded.ok());
  auto m = as_map(*loaded);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("b"), to_bytes("beta"));
  EXPECT_EQ(m.at("c"), to_bytes("gamma"));
  EXPECT_EQ(s.generation(), 2u);

  Transaction wipe;
  wipe.clear();
  ASSERT_TRUE(s.commit(wipe).ok());
  EXPECT_EQ(as_map(*s.load()).size(), 0u);
}

TEST(MemoryStoreTest, InjectedFailureLeavesStateUntouched) {
  MemoryStore s;
  Transaction tx;
  tx.put("k", to_bytes("v"));
  ASSERT_TRUE(s.commit(tx).ok());

  s.fail_next_commits(1);
  Transaction tx2;
  tx2.put("k", to_bytes("replaced")).put("x", to_bytes("y"));
  Result<> r = s.commit(tx2);
  EXPECT_EQ(r.code(), StatusCode::kStoreFailure);
  EXPECT_EQ(s.generation(), 1u);
  EXPECT_EQ(as_map(*s.load()).at("k"), to_bytes("v"));

  // Next commit works again.
  ASSERT_TRUE(s.commit(tx2).ok());
  EXPECT_EQ(as_map(*s.load()).at("k"), to_bytes("replaced"));
}

// ---------------------------------------------------------------------------
// FileStore basics
// ---------------------------------------------------------------------------

TEST(FileStoreTest, FreshDirectoryLoadsEmpty) {
  TempDir dir("fresh");
  FileStore s(dir.str(), test_key(), fast_options());
  auto loaded = s.load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  EXPECT_EQ(s.generation(), 0u);
}

TEST(FileStoreTest, CommitsSurviveReload) {
  TempDir dir("reload");
  {
    FileStore s(dir.str(), test_key(), fast_options());
    Transaction tx;
    tx.put("ro/one", to_bytes("license")).put("st/one", to_bytes("\x01"));
    ASSERT_TRUE(s.commit(tx).ok());
    Transaction tx2;
    tx2.put("st/one", to_bytes("\x02")).erase("missing");
    ASSERT_TRUE(s.commit(tx2).ok());
    EXPECT_EQ(s.generation(), 2u);
  }
  // A fresh object on the same directory (the reboot) replays the image.
  FileStore r(dir.str(), test_key(), fast_options());
  auto loaded = r.load();
  ASSERT_TRUE(loaded.ok());
  auto m = as_map(*loaded);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("st/one"), to_bytes("\x02"));
  EXPECT_EQ(r.generation(), 2u);
}

TEST(FileStoreTest, CompactionPreservesRecordsAndTruncatesJournal) {
  TempDir dir("compact");
  FileStore s(dir.str(), test_key(), fast_options());
  ASSERT_TRUE(s.load().ok());
  for (int i = 0; i < 20; ++i) {
    Transaction tx;
    tx.put("k" + std::to_string(i % 5), to_bytes("v" + std::to_string(i)));
    ASSERT_TRUE(s.commit(tx).ok());
  }
  ASSERT_GT(s.journal_bytes(), 0u);
  ASSERT_TRUE(s.compact().ok());
  EXPECT_EQ(s.journal_bytes(), 0u);

  // Post-compaction commits land in the (fresh) journal...
  Transaction tx;
  tx.put("post", to_bytes("compaction"));
  ASSERT_TRUE(s.commit(tx).ok());

  // ...and a reload folds snapshot + journal back together.
  FileStore r(dir.str(), test_key(), fast_options());
  auto loaded = r.load();
  ASSERT_TRUE(loaded.ok());
  auto m = as_map(*loaded);
  EXPECT_EQ(m.size(), 6u);  // k0..k4 + post
  EXPECT_EQ(m.at("k4"), to_bytes("v19"));
  EXPECT_EQ(m.at("post"), to_bytes("compaction"));
  EXPECT_EQ(r.generation(), 21u);
}

TEST(FileStoreTest, AutoCompactionKicksIn) {
  TempDir dir("autocompact");
  FileStore::Options o = fast_options();
  o.compact_after_bytes = 256;
  FileStore s(dir.str(), test_key(), o);
  ASSERT_TRUE(s.load().ok());
  for (int i = 0; i < 50; ++i) {
    Transaction tx;
    tx.put("hot", to_bytes("value-" + std::to_string(i)));
    ASSERT_TRUE(s.commit(tx).ok());
  }
  // The journal was repeatedly folded away instead of growing unboundedly.
  EXPECT_LT(s.journal_bytes(), 512u);
  FileStore r(dir.str(), test_key(), fast_options());
  auto loaded = r.load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(as_map(*loaded).at("hot"), to_bytes("value-49"));
  EXPECT_EQ(r.generation(), 50u);
}

// ---------------------------------------------------------------------------
// Corruption classes — each fails closed with its own StatusCode
// ---------------------------------------------------------------------------

TEST(FileStoreCorruption, TruncatedJournalTailFailsClosed) {
  TempDir dir("torntail");
  {
    FileStore s(dir.str(), test_key(), fast_options());
    Transaction tx;
    tx.put("k", to_bytes("v"));
    ASSERT_TRUE(s.commit(tx).ok());
    Transaction tx2;
    tx2.put("k", to_bytes("w"));
    ASSERT_TRUE(s.commit(tx2).ok());
  }
  truncate_by(dir.file("journal.bin"), 7);

  // Default policy: fail closed, distinct code.
  FileStore strict(dir.str(), test_key(), fast_options());
  auto r = strict.load();
  EXPECT_EQ(r.code(), StatusCode::kStoreCorrupt);

  // The torn frame's commit never returned, so dropping it is safe when
  // the caller opts into recovery — but the second commit's generation
  // is now below the counter, which the rollback guard catches: a
  // truncation that removes a COMPLETED commit is not a recoverable
  // tail, it is rollback.
  FileStore::Options recover = fast_options();
  recover.recover_torn_tail = true;
  FileStore tolerant(dir.str(), test_key(), recover);
  EXPECT_EQ(tolerant.load().code(), StatusCode::kStoreRollback);
}

TEST(FileStoreCorruption, TornTailRecoveryKeepsCompletedCommits) {
  TempDir dir("tornok");
  std::size_t complete_size = 0;
  {
    FileStore s(dir.str(), test_key(), fast_options());
    Transaction tx;
    tx.put("k", to_bytes("v"));
    ASSERT_TRUE(s.commit(tx).ok());
    complete_size = s.journal_bytes();
    // Power loss mid-append of the SECOND frame: written via the fault
    // hook so the counter was never bumped for it.
    s.set_journal_fault_after(5);
    Transaction tx2;
    tx2.put("k", to_bytes("w"));
    EXPECT_EQ(s.commit(tx2).code(), StatusCode::kStoreFailure);
  }
  ASSERT_GT(read_file_bytes(dir.file("journal.bin")).size(), complete_size);

  FileStore::Options recover = fast_options();
  recover.recover_torn_tail = true;
  FileStore tolerant(dir.str(), test_key(), recover);
  auto loaded = tolerant.load();
  ASSERT_TRUE(loaded.ok()) << loaded.describe();
  EXPECT_EQ(as_map(*loaded).at("k"), to_bytes("v"));  // first commit kept
  EXPECT_EQ(tolerant.generation(), 1u);
  // The repair truncated the torn bytes away.
  EXPECT_EQ(read_file_bytes(dir.file("journal.bin")).size(), complete_size);
}

TEST(FileStoreCorruption, BitFlippedJournalFrameFailsClosed) {
  TempDir dir("bitflip");
  {
    FileStore s(dir.str(), test_key(), fast_options());
    Transaction tx;
    tx.put("k", to_bytes("genuine value"));
    ASSERT_TRUE(s.commit(tx).ok());
  }
  flip_byte(dir.file("journal.bin"), 20);  // inside the sealed body
  FileStore r(dir.str(), test_key(), fast_options());
  EXPECT_EQ(r.load().code(), StatusCode::kStoreSealBroken);
}

TEST(FileStoreCorruption, BitFlippedSnapshotFailsClosed) {
  TempDir dir("snapflip");
  {
    FileStore s(dir.str(), test_key(), fast_options());
    Transaction tx;
    tx.put("k", to_bytes("v"));
    ASSERT_TRUE(s.commit(tx).ok());
    ASSERT_TRUE(s.compact().ok());
  }
  flip_byte(dir.file("snapshot.bin"), 12);
  FileStore r(dir.str(), test_key(), fast_options());
  EXPECT_EQ(r.load().code(), StatusCode::kStoreSealBroken);
}

TEST(FileStoreCorruption, WrongStorageKeyFailsClosed) {
  TempDir dir("wrongkey");
  {
    FileStore s(dir.str(), test_key(), fast_options());
    Transaction tx;
    tx.put("k", to_bytes("v"));
    ASSERT_TRUE(s.commit(tx).ok());
  }
  FileStore other(dir.str(), store::derive_storage_key(to_bytes("other")),
                  fast_options());
  EXPECT_EQ(other.load().code(), StatusCode::kStoreSealBroken);
}

TEST(FileStoreCorruption, StaleSnapshotReplayDetected) {
  TempDir dir("stale");
  FileStore s(dir.str(), test_key(), fast_options());
  ASSERT_TRUE(s.load().ok());
  Transaction tx;
  tx.put("count", to_bytes("3 uses left"));
  ASSERT_TRUE(s.commit(tx).ok());
  ASSERT_TRUE(s.compact().ok());

  // An attacker (or a backup restore) squirrels away the current image...
  Bytes old_snapshot = read_file_bytes(dir.file("snapshot.bin"));
  Bytes old_journal = read_file_bytes(dir.file("journal.bin"));

  // ...the device legitimately burns more state...
  for (int i = 2; i >= 0; --i) {
    Transaction burn;
    burn.put("count", to_bytes(std::to_string(i) + " uses left"));
    ASSERT_TRUE(s.commit(burn).ok());
  }

  // ...and the old image is replayed. The monotonic counter (hardware,
  // not replayable) exposes the rollback.
  write_file_bytes(dir.file("snapshot.bin"), old_snapshot);
  write_file_bytes(dir.file("journal.bin"), old_journal);
  FileStore r(dir.str(), test_key(), fast_options());
  EXPECT_EQ(r.load().code(), StatusCode::kStoreRollback);
}

TEST(FileStoreCorruption, MissingCounterDetected) {
  TempDir dir("noctr");
  {
    FileStore s(dir.str(), test_key(), fast_options());
    Transaction tx;
    tx.put("k", to_bytes("v"));
    ASSERT_TRUE(s.commit(tx).ok());
  }
  std::filesystem::remove(dir.file("counter.bin"));
  FileStore r(dir.str(), test_key(), fast_options());
  EXPECT_EQ(r.load().code(), StatusCode::kStoreRollback);
}

TEST(FileStoreCorruption, TruncatedCounterIsCorrupt) {
  TempDir dir("shortctr");
  {
    FileStore s(dir.str(), test_key(), fast_options());
    Transaction tx;
    tx.put("k", to_bytes("v"));
    ASSERT_TRUE(s.commit(tx).ok());
  }
  truncate_by(dir.file("counter.bin"), 3);
  FileStore r(dir.str(), test_key(), fast_options());
  EXPECT_EQ(r.load().code(), StatusCode::kStoreCorrupt);
}

// ---------------------------------------------------------------------------
// Flush and file-creation counts of a durable commit
// ---------------------------------------------------------------------------

/// name -> inode of every file in `dir`: a rename or a new file changes it.
std::map<std::string, std::uintmax_t> inode_listing(const TempDir& dir) {
  std::map<std::string, std::uintmax_t> out;
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    struct stat st {};
    if (::stat(e.path().c_str(), &st) == 0) {
      out[e.path().filename().string()] = st.st_ino;
    }
  }
  return out;
}

TEST(FileStoreFlushes, DurableCommitIsTwoFlushesAndNoNewFile) {
  TempDir dir("flushes");
  FileStore s(dir.str(), test_key(), FileStore::Options());  // durable
  ASSERT_TRUE(s.load().ok());
  const auto files_after_load = inode_listing(dir);
  EXPECT_EQ(files_after_load.count("counter.bin"), 1u)
      << "load() creates the counter of an empty store";

  // Hit counting runs while any site is armed; this one never fires.
  failpoint::arm("test.count-only", "error-once");
  constexpr std::uint64_t kCommits = 5;
  for (std::uint64_t i = 0; i < kCommits; ++i) {
    Transaction tx;
    tx.put("st/ro", to_bytes("used=" + std::to_string(i)));
    ASSERT_TRUE(s.commit(tx).ok());
  }
  const std::uint64_t journal_flushes = failpoint::hits("store.journal.fsync");
  const std::uint64_t counter_flushes =
      failpoint::hits("store.counter.fdatasync");
  std::uint64_t all_flushes = 0;
  for (const auto& site : failpoint::catalog()) {
    const std::string_view name = site.name;
    if (name.ends_with(".fsync") || name.ends_with(".fdatasync")) {
      all_flushes += failpoint::hits(name);
    }
  }
  const std::uint64_t replaces = failpoint::hits("store.snapshot.replace.open");
  failpoint::reset_all();

  EXPECT_EQ(journal_flushes, kCommits);
  EXPECT_EQ(counter_flushes, kCommits);
  EXPECT_EQ(all_flushes, 2 * kCommits) << "a flush site beyond the two";
  EXPECT_EQ(replaces, 0u);
  EXPECT_EQ(inode_listing(dir), files_after_load)
      << "a commit created, removed or renamed a file";
}

// ---------------------------------------------------------------------------
// Byte-accurate power-loss atomicity
// ---------------------------------------------------------------------------

TEST(FileStoreCrash, PowerLossAtEveryByteOffsetIsAtomic) {
  // Measure the on-disk size of the victim frame once.
  std::size_t frame_size = 0;
  {
    TempDir dir("measure");
    FileStore s(dir.str(), test_key(), fast_options());
    ASSERT_TRUE(s.load().ok());
    Transaction base;
    base.put("st/ro", to_bytes("budget=3"));
    ASSERT_TRUE(s.commit(base).ok());
    const std::size_t before = s.journal_bytes();
    Transaction tx;
    tx.put("st/ro", to_bytes("budget=2")).put("extra", to_bytes("rec"));
    ASSERT_TRUE(s.commit(tx).ok());
    frame_size = s.journal_bytes() - before;
  }
  ASSERT_GT(frame_size, 30u);

  // Kill the append at every byte offset inside the frame: the reloaded
  // store must always hold EXACTLY the pre-commit state — never a
  // partial transaction, never the complete one (its commit never
  // returned), and never a crash.
  for (std::size_t cut = 0; cut < frame_size; ++cut) {
    TempDir dir("cut" + std::to_string(cut));
    FileStore s(dir.str(), test_key(), fast_options());
    ASSERT_TRUE(s.load().ok());
    Transaction base;
    base.put("st/ro", to_bytes("budget=3"));
    ASSERT_TRUE(s.commit(base).ok());

    s.set_journal_fault_after(cut);
    Transaction tx;
    tx.put("st/ro", to_bytes("budget=2")).put("extra", to_bytes("rec"));
    ASSERT_EQ(s.commit(tx).code(), StatusCode::kStoreFailure) << cut;

    FileStore::Options recover = fast_options();
    recover.recover_torn_tail = true;
    FileStore r(dir.str(), test_key(), recover);
    auto loaded = r.load();
    ASSERT_TRUE(loaded.ok()) << "cut=" << cut << ": " << loaded.describe();
    auto m = as_map(*loaded);
    ASSERT_EQ(m.size(), 1u) << cut;
    EXPECT_EQ(m.at("st/ro"), to_bytes("budget=3")) << cut;
    EXPECT_EQ(r.generation(), 1u) << cut;
  }
}

// ---------------------------------------------------------------------------
// Store-backed DRM Agent: the crash-safety contract end to end
// ---------------------------------------------------------------------------

constexpr std::uint64_t kNow = 1100000000;
const pki::Validity kValidity{kNow - 86400, kNow + 365 * 86400};

class StoreBacked : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<DeterministicRng>(0x57E);
    ca_ = std::make_unique<pki::CertificationAuthority>("CMLA Root", 1024,
                                                        kValidity, *rng_);
    ci_ = std::make_unique<ci::ContentIssuer>(
        "content.example", provider::plain_provider(), *rng_);
    ri_ = std::make_unique<ri::RightsIssuer>(
        "ri.example", "http://ri.example/roap", *ca_, kValidity,
        provider::plain_provider(), *rng_);
    device_ = std::make_unique<DrmAgent>("device-01", ca_->root_certificate(),
                                         provider::plain_provider(), *rng_);
    device_->provision(
        ca_->issue("device-01", device_->public_key(), kValidity, *rng_));
    transport_ = std::make_unique<roap::InProcessTransport>(*ri_, kNow);
  }

  roap::InProcessTransport& tx() { return *transport_; }

  dcf::Dcf setup_content(const std::string& tag, std::uint32_t count_limit,
                         bool domain_ro = false) {
    content_ = rng_->bytes(1500);
    dcf::Headers h;
    h.content_type = "audio/mpeg";
    h.content_id = "cid:" + tag + "@content.example";
    h.rights_issuer_url = ri_->url();
    dcf::Dcf dcf = ci_->package(h, content_);

    ri::LicenseOffer offer;
    offer.ro_id = "ro:" + tag;
    offer.content_id = h.content_id;
    offer.dcf_hash = dcf.hash();
    rel::Permission play;
    play.type = rel::PermissionType::kPlay;
    if (count_limit > 0) play.constraint.count = count_limit;
    offer.permissions = {play};
    offer.kcek = *ci_->kcek_for(h.content_id);
    if (domain_ro) {
      offer.domain_ro = true;
      offer.domain_id = "domain:home";
      ri_->create_domain(offer.domain_id);
    }
    ri_->add_offer(offer);
    return dcf;
  }

  /// Registers, acquires, and installs ro:<tag> on device_.
  void provision_ro(const std::string& tag) {
    ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
    auto acq = device_->acquire_ro(tx(), "ri.example", "ro:" + tag, kNow);
    ASSERT_EQ(acq, AgentStatus::kOk);
    ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  }

  Bytes agent_storage_key() const {
    return store::derive_storage_key(device_->device_key());
  }

  std::unique_ptr<DeterministicRng> rng_;
  std::unique_ptr<pki::CertificationAuthority> ca_;
  std::unique_ptr<ci::ContentIssuer> ci_;
  std::unique_ptr<ri::RightsIssuer> ri_;
  std::unique_ptr<DrmAgent> device_;
  std::unique_ptr<roap::InProcessTransport> transport_;
  Bytes content_;
};

TEST_F(StoreBacked, EveryGrantCommitsBeforeTheSessionReturns) {
  TempDir dir("burncommit");
  dcf::Dcf dcf = setup_content("burn", 5);
  FileStore fs(dir.str(), agent_storage_key(), fast_options());
  ASSERT_TRUE(device_->bind_store(fs).ok());
  provision_ro("burn");

  const std::uint64_t before = fs.generation();
  agent::ContentSession s =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
  ASSERT_TRUE(s.ok());
  // The burn was durable before we ever saw the session.
  EXPECT_EQ(fs.generation(), before + 1);

  // An independent reader of the same directory already sees it.
  FileStore other(dir.str(), agent_storage_key(), fast_options());
  auto reboot = DrmAgent::from_store(other, device_->device_key(),
                                     ca_->root_certificate(),
                                     provider::plain_provider(), *rng_);
  ASSERT_TRUE(reboot.ok()) << reboot.describe();
  EXPECT_EQ(*reboot->remaining_count("ro:burn", rel::PermissionType::kPlay),
            4u);
}

TEST_F(StoreBacked, AgentStateSurvivesRebootViaFromStore) {
  TempDir dir("reboot");
  dcf::Dcf dcf = setup_content("persist", 3);
  FileStore fs(dir.str(), agent_storage_key(), fast_options());
  ASSERT_TRUE(device_->bind_store(fs).ok());
  provision_ro("persist");
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);

  // Reboot: identity, RI context, RO, and the burned count all come back
  // from the sealed files alone (plus the hardware-held K_DEV).
  FileStore fs2(dir.str(), agent_storage_key(), fast_options());
  auto rebooted = DrmAgent::from_store(fs2, device_->device_key(),
                                       ca_->root_certificate(),
                                       provider::plain_provider(), *rng_);
  ASSERT_TRUE(rebooted.ok()) << rebooted.describe();
  EXPECT_EQ(rebooted->device_id(), "device-01");
  EXPECT_TRUE(rebooted->is_provisioned());
  EXPECT_TRUE(rebooted->has_ri_context("ri.example"));
  EXPECT_EQ(
      *rebooted->remaining_count("ro:persist", rel::PermissionType::kPlay),
      2u);
  // ...and keeps consuming and speaking ROAP with the restored keys.
  EXPECT_EQ(rebooted->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  auto acq2 = rebooted->acquire_ro(tx(), "ri.example", "ro:persist", kNow);
  EXPECT_EQ(acq2, AgentStatus::kOk);
}

TEST_F(StoreBacked, CrashBetweenGrantAndCommitNeverRefunds) {
  // Kill the store at several byte offsets inside the burn commit. In
  // every case: the session is refused (the grant was never delivered),
  // and a reloaded agent sees exactly the previously committed burns —
  // the delivered grant count can never go backwards.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                          std::size_t{60}, std::size_t{120}}) {
    TempDir dir("crash" + std::to_string(cut));
    dcf::Dcf dcf = setup_content("crash" + std::to_string(cut), 5);
    FileStore fs(dir.str(), agent_storage_key(), fast_options());
    ASSERT_TRUE(device_->bind_store(fs).ok());
    provision_ro("crash" + std::to_string(cut));
    const std::string ro_id = "ro:crash" + std::to_string(cut);

    // Two delivered (committed) grants.
    ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
              AgentStatus::kOk);
    ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
              AgentStatus::kOk);

    // Power loss inside the third burn's commit: open_content must
    // refuse (fail closed) and revert its RAM burn.
    fs.set_journal_fault_after(cut);
    agent::ContentSession s =
        device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.status(), StatusCode::kStoreFailure);
    EXPECT_EQ(*device_->remaining_count(ro_id, rel::PermissionType::kPlay),
              3u);

    // Reboot off the torn medium: both delivered grants stay burned.
    FileStore::Options recover = fast_options();
    recover.recover_torn_tail = true;
    FileStore fs2(dir.str(), agent_storage_key(), recover);
    auto rebooted = DrmAgent::from_store(fs2, device_->device_key(),
                                         ca_->root_certificate(),
                                         provider::plain_provider(), *rng_);
    ASSERT_TRUE(rebooted.ok()) << "cut=" << cut << ": "
                               << rebooted.describe();
    EXPECT_EQ(
        *rebooted->remaining_count(ro_id, rel::PermissionType::kPlay), 3u)
        << "cut=" << cut;

    // Fresh fixture state for the next offset (device_ is rebuilt).
    SetUp();
  }
}

TEST_F(StoreBacked, CommitFailureFailsClosedAndRollsBackRam) {
  MemoryStore ms;
  dcf::Dcf dcf = setup_content("memfail", 2);
  ASSERT_TRUE(device_->bind_store(ms).ok());
  provision_ro("memfail");

  ms.fail_next_commits(1);
  agent::ContentSession s =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status(), StatusCode::kStoreFailure);
  // The REL verdict itself was a grant — storage is what refused.
  EXPECT_EQ(s.decision(), rel::Decision::kGranted);
  EXPECT_EQ(*device_->remaining_count("ro:memfail",
                                      rel::PermissionType::kPlay),
            2u);

  // With the store healthy again the full budget is still available.
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kPermissionDenied);
}

TEST_F(StoreBacked, RewindNeverSurvivesReloadAsUnburnedGrant) {
  TempDir dir("rewind");
  dcf::Dcf dcf = setup_content("rewind", 2);
  FileStore fs(dir.str(), agent_storage_key(), fast_options());
  ASSERT_TRUE(device_->bind_store(fs).ok());
  provision_ro("rewind");

  agent::ContentSession s =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
  ASSERT_TRUE(s.ok());
  Bytes chunk(257);
  (void)s.read(std::span<std::uint8_t>(chunk.data(), chunk.size()));
  s.rewind();  // replay within the session: no new burn...

  // ...and mid-session, with the rewound session still alive, a reload
  // of the agent state sees the grant burned — rewind is RAM-only replay
  // of an already-durable burn, never a resurrectable un-burned grant.
  FileStore fs2(dir.str(), agent_storage_key(), fast_options());
  auto rebooted = DrmAgent::from_store(fs2, device_->device_key(),
                                       ca_->root_certificate(),
                                       provider::plain_provider(), *rng_);
  ASSERT_TRUE(rebooted.ok()) << rebooted.describe();
  EXPECT_EQ(
      *rebooted->remaining_count("ro:rewind", rel::PermissionType::kPlay),
      1u);

  // The reloaded agent burns (and commits) its own access; the original
  // session keeps replaying its one grant untouched.
  EXPECT_EQ(rebooted->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  s.rewind();
  EXPECT_EQ(s.read_all(), content_);
}

TEST_F(StoreBacked, TamperedStoreRejectedOnReboot) {
  TempDir dir("tamper");
  dcf::Dcf dcf = setup_content("tamper", 3);
  FileStore fs(dir.str(), agent_storage_key(), fast_options());
  ASSERT_TRUE(device_->bind_store(fs).ok());
  provision_ro("tamper");
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);

  flip_byte(dir.file("journal.bin"), 30);
  FileStore fs2(dir.str(), agent_storage_key(), fast_options());
  auto rebooted = DrmAgent::from_store(fs2, device_->device_key(),
                                       ca_->root_certificate(),
                                       provider::plain_provider(), *rng_);
  EXPECT_EQ(rebooted.code(), StatusCode::kStoreSealBroken);
}

TEST_F(StoreBacked, StaleStoreImageRejectedOnReboot) {
  TempDir dir("rollback");
  dcf::Dcf dcf = setup_content("rollback", 3);
  FileStore fs(dir.str(), agent_storage_key(), fast_options());
  ASSERT_TRUE(device_->bind_store(fs).ok());
  provision_ro("rollback");
  ASSERT_TRUE(fs.compact().ok());

  // Save the image while 3 plays remain, burn them all, restore it.
  Bytes snapshot = read_file_bytes(dir.file("snapshot.bin"));
  Bytes journal = read_file_bytes(dir.file("journal.bin"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
              AgentStatus::kOk);
  }
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kPermissionDenied);
  write_file_bytes(dir.file("snapshot.bin"), snapshot);
  write_file_bytes(dir.file("journal.bin"), journal);

  FileStore fs2(dir.str(), agent_storage_key(), fast_options());
  auto rebooted = DrmAgent::from_store(fs2, device_->device_key(),
                                       ca_->root_certificate(),
                                       provider::plain_provider(), *rng_);
  EXPECT_EQ(rebooted.code(), StatusCode::kStoreRollback);
}

TEST_F(StoreBacked, BindSeedsExistingStateIntoAnEmptyStore) {
  TempDir dir("seed");
  dcf::Dcf dcf = setup_content("seed", 4);
  provision_ro("seed");  // unbound: RAM only
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);

  FileStore fs(dir.str(), agent_storage_key(), fast_options());
  ASSERT_TRUE(device_->bind_store(fs).ok());  // seeds the full image

  FileStore fs2(dir.str(), agent_storage_key(), fast_options());
  auto rebooted = DrmAgent::from_store(fs2, device_->device_key(),
                                       ca_->root_certificate(),
                                       provider::plain_provider(), *rng_);
  ASSERT_TRUE(rebooted.ok()) << rebooted.describe();
  EXPECT_EQ(*rebooted->remaining_count("ro:seed", rel::PermissionType::kPlay),
            3u);
}

TEST_F(StoreBacked, ImportCommitsThroughBoundStore) {
  TempDir dir("import");
  dcf::Dcf dcf = setup_content("import", 3);
  provision_ro("import");
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  Bytes image = device_->export_state();

  // A store-backed blank agent imports the image; the store must hold
  // the imported state (full replacement), provable by rebooting off it.
  // The seal key is the backend's property, fixed at construction — it
  // stays the blank agent's even though import replaces K_DEV.
  DrmAgent blank("blank", ca_->root_certificate(),
                 provider::plain_provider(), *rng_, 512);
  const Bytes seal = store::derive_storage_key(blank.device_key());
  FileStore fs(dir.str(), seal, fast_options());
  ASSERT_TRUE(blank.bind_store(fs).ok());
  blank.import_state(image);
  EXPECT_EQ(blank.device_id(), "device-01");

  FileStore fs2(dir.str(), seal, fast_options());
  auto rebooted = DrmAgent::from_store(fs2, blank.device_key(),
                                       ca_->root_certificate(),
                                       provider::plain_provider(), *rng_);
  ASSERT_TRUE(rebooted.ok()) << rebooted.describe();
  EXPECT_EQ(
      *rebooted->remaining_count("ro:import", rel::PermissionType::kPlay),
      2u);
  EXPECT_EQ(rebooted->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(StoreBacked, ReplacedRoGetsFreshDurableState) {
  TempDir dir("replace");
  dcf::Dcf dcf = setup_content("replace", 2);
  FileStore fs(dir.str(), agent_storage_key(), fast_options());
  ASSERT_TRUE(device_->bind_store(fs).ok());
  provision_ro("replace");
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  ASSERT_EQ(*device_->remaining_count("ro:replace",
                                      rel::PermissionType::kPlay),
            1u);

  // Re-acquiring and re-installing the same RO resets its budgets; the
  // durable image must agree after a reboot (no resurrection of the old
  // burn against the new license).
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:replace", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  EXPECT_EQ(*device_->remaining_count("ro:replace",
                                      rel::PermissionType::kPlay),
            2u);

  FileStore fs2(dir.str(), agent_storage_key(), fast_options());
  auto rebooted = DrmAgent::from_store(fs2, device_->device_key(),
                                       ca_->root_certificate(),
                                       provider::plain_provider(), *rng_);
  ASSERT_TRUE(rebooted.ok()) << rebooted.describe();
  EXPECT_EQ(
      *rebooted->remaining_count("ro:replace", rel::PermissionType::kPlay),
      2u);
}

TEST_F(StoreBacked, LeaveDomainErasesDurableRecords) {
  TempDir dir("leave");
  dcf::Dcf dcf = setup_content("leave", 0, /*domain_ro=*/true);
  FileStore fs(dir.str(), agent_storage_key(), fast_options());
  ASSERT_TRUE(device_->bind_store(fs).ok());
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  auto acq = device_->acquire_ro(tx(), "ri.example", "ro:leave", kNow);
  ASSERT_EQ(acq, AgentStatus::kOk);
  ASSERT_EQ(device_->install_ro(*acq, kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->leave_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);

  FileStore fs2(dir.str(), agent_storage_key(), fast_options());
  auto rebooted = DrmAgent::from_store(fs2, device_->device_key(),
                                       ca_->root_certificate(),
                                       provider::plain_provider(), *rng_);
  ASSERT_TRUE(rebooted.ok()) << rebooted.describe();
  EXPECT_FALSE(rebooted->has_domain_key("domain:home"));
  EXPECT_EQ(rebooted->installed_count(), 0u);
  EXPECT_EQ(rebooted->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kNotInstalled);
}

TEST_F(StoreBacked, DeniedAccessesCommitNothing) {
  TempDir dir("deny");
  dcf::Dcf dcf = setup_content("deny", 1);
  FileStore fs(dir.str(), agent_storage_key(), fast_options());
  ASSERT_TRUE(device_->bind_store(fs).ok());
  provision_ro("deny");
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);

  // Exhausted budget: the denial must not touch the store (no commit,
  // no generation bump) — only grants burn, and only grants commit.
  const std::uint64_t generation = fs.generation();
  agent::ContentSession s =
      device_->open_content(dcf, rel::PermissionType::kPlay, kNow);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.decision(), rel::Decision::kCountExhausted);
  EXPECT_EQ(fs.generation(), generation);
}

TEST_F(StoreBacked, BindRefusesForeignStore) {
  // An RI-shaped store (records but no "id") must not be wiped and
  // reseeded by an agent bind — that would destroy the other entity's
  // durable state.
  MemoryStore ri_shaped;
  Transaction tx;
  tx.put("meta", Bytes(8, 0));
  ASSERT_TRUE(ri_shaped.commit(tx).ok());
  EXPECT_EQ(device_->bind_store(ri_shaped).code(),
            StatusCode::kStoreCorrupt);
  EXPECT_EQ(device_->bound_store(), nullptr);
  EXPECT_EQ(ri_shaped.record_count(), 1u);  // untouched

  // Symmetrically, the RI refuses an agent-shaped store (no "meta").
  MemoryStore agent_shaped;
  Transaction tx2;
  tx2.put("sess/zzz", to_bytes("x"));
  ASSERT_TRUE(agent_shaped.commit(tx2).ok());
  EXPECT_EQ(ri_->bind_store(agent_shaped).code(),
            StatusCode::kStoreCorrupt);
  EXPECT_EQ(agent_shaped.record_count(), 1u);
}

TEST_F(StoreBacked, MalformedImageRejectedWithoutGuttingAgent) {
  dcf::Dcf dcf = setup_content("gut", 3);
  provision_ro("gut");  // device_ unbound: RAM state only

  // A store whose image has an identity but also a record the agent
  // cannot place: bind must fail closed AND leave the live state alone.
  MemoryStore ms;
  DrmAgent other("other", ca_->root_certificate(),
                 provider::plain_provider(), *rng_, 512);
  ASSERT_TRUE(other.bind_store(ms).ok());
  Transaction tx;
  tx.put("bogus/x", to_bytes("?"));
  ASSERT_TRUE(ms.commit(tx).ok());

  EXPECT_EQ(device_->bind_store(ms).code(), StatusCode::kStoreCorrupt);
  EXPECT_EQ(device_->bound_store(), nullptr);
  EXPECT_EQ(device_->device_id(), "device-01");
  EXPECT_EQ(device_->installed_count(), 1u);
  EXPECT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
}

TEST_F(StoreBacked, OutOfRangeDomainGenerationRejected) {
  setup_content("gen", 0, /*domain_ro=*/true);
  ASSERT_EQ(device_->register_with(tx(), kNow), AgentStatus::kOk);
  ASSERT_EQ(device_->join_domain(tx(), "ri.example", "domain:home", kNow),
            AgentStatus::kOk);
  MemoryStore ms;
  ASSERT_TRUE(device_->bind_store(ms).ok());

  // Rewrites the sealed dom/ record's generation attribute in place.
  auto set_generation = [&](const std::string& generation) {
    Result<std::vector<store::Record>> loaded = ms.load();
    ASSERT_TRUE(loaded.ok());
    for (const store::Record& rec : *loaded) {
      if (rec.key != "dom/domain:home") continue;
      std::string doc = to_string(rec.value);
      const std::string_view old_attr = "generation=\"";
      const std::size_t at = doc.find(old_attr);
      ASSERT_NE(at, std::string::npos);
      const std::size_t end = doc.find('"', at + old_attr.size());
      doc.replace(at + old_attr.size(), end - at - old_attr.size(),
                  generation);
      Transaction tx;
      tx.put(rec.key, to_bytes(doc));
      ASSERT_TRUE(ms.commit(tx).ok());
      return;
    }
    FAIL() << "no domain-key record";
  };
  auto reboot = [&] {
    return DrmAgent::from_store(ms, device_->device_key(),
                                ca_->root_certificate(),
                                provider::plain_provider(), *rng_);
  };

  // The largest u32 generation still loads...
  set_generation("4294967295");
  auto top = reboot();
  ASSERT_TRUE(top.ok()) << top.describe();
  EXPECT_EQ(*top->domain_generation("domain:home"), 4294967295u);

  // ...one past it is a corrupt record, not generation 0 (or 1 for
  // 2^32 + 1) after a silent truncation.
  set_generation("4294967296");
  EXPECT_EQ(reboot().code(), StatusCode::kStoreCorrupt);
  set_generation("4294967297");
  EXPECT_EQ(reboot().code(), StatusCode::kStoreCorrupt);
}

TEST_F(StoreBacked, RefusedImportLeavesAgentAndStoreUntouched) {
  dcf::Dcf dcf = setup_content("impfail", 3);
  provision_ro("impfail");
  ASSERT_EQ(device_->consume(dcf, rel::PermissionType::kPlay, kNow).status,
            AgentStatus::kOk);
  Bytes image = device_->export_state();

  MemoryStore ms;
  DrmAgent blank("blank", ca_->root_certificate(),
                 provider::plain_provider(), *rng_, 512);
  ASSERT_TRUE(blank.bind_store(ms).ok());

  // The store refuses the imported image: BOTH the live state and the
  // store must stay at the predecessor's image (adopt-before-commit
  // would let the next reboot roll back the imported burns).
  ms.fail_next_commits(1);
  EXPECT_THROW(blank.import_state(image), Error);
  EXPECT_EQ(blank.device_id(), "blank");
  EXPECT_EQ(blank.installed_count(), 0u);
  auto rebooted = DrmAgent::from_store(ms, blank.device_key(),
                                       ca_->root_certificate(),
                                       provider::plain_provider(), *rng_);
  ASSERT_TRUE(rebooted.ok()) << rebooted.describe();
  EXPECT_EQ(rebooted->device_id(), "blank");

  // With the store healthy the same import goes through everywhere.
  blank.import_state(image);
  EXPECT_EQ(blank.device_id(), "device-01");
  EXPECT_EQ(
      *blank.remaining_count("ro:impfail", rel::PermissionType::kPlay), 2u);
}

// ---------------------------------------------------------------------------
// Rights Issuer replay/registration state on the same interface
// ---------------------------------------------------------------------------

using RiPersistence = StoreBacked;

TEST_F(RiPersistence, HandshakeSurvivesRiRestart) {
  TempDir dir("ri");
  Bytes ri_key = store::derive_storage_key(to_bytes("ri-secret"));
  FileStore ri_store(dir.str(), ri_key, fast_options());
  ASSERT_TRUE(ri_->bind_store(ri_store).ok());

  // Passes 1-2 against the first RI process...
  agent::RegistrationSession reg(*device_, kNow);
  auto hello = reg.hello();
  ASSERT_EQ(hello, AgentStatus::kOk);
  roap::Envelope ri_hello = tx().request(*hello);
  auto req = reg.request(ri_hello);
  ASSERT_EQ(req, AgentStatus::kOk);

  // ...the RI "crashes" and restarts from its store (fresh process =
  // fresh object bound to the same directory; identity re-provisioned
  // from the same CA)...
  ri::RightsIssuer ri2("ri.example", "http://ri.example/roap", *ca_,
                       kValidity, provider::plain_provider(), *rng_);
  FileStore ri_store2(dir.str(), ri_key, fast_options());
  ASSERT_TRUE(ri2.bind_store(ri_store2).ok());
  EXPECT_EQ(ri2.pending_session_count(), 1u);  // pending nonce survived

  // ...and passes 3-4 complete against the restarted RI.
  roap::InProcessTransport tx2(ri2, kNow);
  roap::Envelope resp = tx2.request(*req);
  EXPECT_EQ(reg.conclude(resp), AgentStatus::kOk);
  EXPECT_TRUE(device_->has_ri_context("ri.example"));
  EXPECT_TRUE(ri2.is_registered("device-01"));
}

TEST_F(RiPersistence, ConsumedSessionStaysConsumedAcrossRestart) {
  TempDir dir("rireplay");
  Bytes ri_key = store::derive_storage_key(to_bytes("ri-secret"));
  FileStore ri_store(dir.str(), ri_key, fast_options());
  ASSERT_TRUE(ri_->bind_store(ri_store).ok());

  agent::RegistrationSession reg(*device_, kNow);
  auto hello = reg.hello();
  ASSERT_EQ(hello, AgentStatus::kOk);
  roap::Envelope ri_hello = tx().request(*hello);
  auto req = reg.request(ri_hello);
  ASSERT_EQ(req, AgentStatus::kOk);
  roap::Envelope resp = tx().request(*req);
  ASSERT_EQ(reg.conclude(resp), AgentStatus::kOk);  // session consumed

  // Replaying the captured RegistrationRequest against a restarted RI
  // must find the one-shot session consumed, not resurrected.
  ri::RightsIssuer ri2("ri.example", "http://ri.example/roap", *ca_,
                       kValidity, provider::plain_provider(), *rng_);
  FileStore ri_store2(dir.str(), ri_key, fast_options());
  ASSERT_TRUE(ri2.bind_store(ri_store2).ok());
  EXPECT_EQ(ri2.pending_session_count(), 0u);
  EXPECT_TRUE(ri2.is_registered("device-01"));  // admission survived

  roap::InProcessTransport tx2(ri2, kNow);
  roap::Envelope replayed = tx2.request(*req);
  // The restarted RI's replay cache is RAM-only and therefore empty, so
  // the duplicate reaches the handler, finds its one-shot session
  // consumed, and answers with the clean restart-from-DeviceHello signal
  // (kSessionExpired, not a kAbort refusal — the device did nothing
  // wrong).
  EXPECT_EQ(replayed.open<roap::RegistrationResponse>().status,
            roap::Status::kSessionExpired);
}

}  // namespace
}  // namespace omadrm
