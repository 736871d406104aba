// Record-log tests: the page format shared by ArtifactStore and JobJournal.
//
// Golden bytes pin the on-disk image of a fixed store and a fixed journal
// (size and whole-file PageChecksum), so a refactor of the framing code
// cannot silently change the format. Fault-site hit counts pin *where* the
// store.* and journal.* hooks fire for a fixed script, so the chaos and
// crash schedules keep landing on the same operations. The mutation sweep
// runs every truncation length and every single-bit flip of the superblock
// and the first frame header through Open / load / Replay / append / Fsck.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/mining.h"
#include "graph/serialize.h"
#include "store/artifact_store.h"
#include "store/job_journal.h"
#include "test_util.h"
#include "util/checksum.h"
#include "util/fault_injection.h"

namespace dcs {
namespace {

using ::dcs::testing::MakeGraph;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "record_log_test_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t BytesChecksum(const std::string& bytes) {
  return PageChecksum(bytes.data(), bytes.size());
}

// ---- fixed inputs ----------------------------------------------------------

Graph GoldenGraph() {
  return MakeGraph(4, {{0, 1, 1.0}, {1, 2, -2.0}, {2, 3, 0.5}, {0, 3, 1.5}});
}

// A GA pipeline whose every field is a literal (no solver arithmetic), so
// its bytes cannot drift with compiler flags.
std::pair<PipelineCacheKey, PreparedPipeline> GoldenPipeline() {
  PipelineCacheKey key;
  key.graph_fingerprint = 0x0123456789ABCDEFull;
  key.alpha = 1.5;
  key.clamp_weights_above = 2.0;
  PreparedPipeline pipeline;
  pipeline.difference = GoldenGraph();
  pipeline.positive_part = pipeline.difference.PositivePart();
  pipeline.has_ga_artifacts = true;
  SmartInitBounds& b = pipeline.smart_bounds;
  b.w = {1.5, 1.0, 0.5, 1.5};
  b.tau = {1, 1, 0, 1};
  b.mu = {0.75, 0.5, 0.0, 0.75};
  b.max_incident = {1.5, 1.0, 0.5, 1.5};
  b.order = {0, 3, 1, 2};
  return {key, pipeline};
}

JournalAdmittedRecord GoldenAdmitted() {
  JournalAdmittedRecord record;
  record.job_id = 7;
  record.tenant = 2;
  record.admission_index = 11;
  record.request.measure = Measure::kBoth;
  record.request.alpha = 1.25;
  record.request.top_k = 2;
  record.request.priority = -3;
  record.request.deadline_seconds = 4.5;
  record.request.ga_solver_name = "dcsga";
  return record;
}

JournalDoneRecord GoldenDone() {
  JournalDoneRecord record;
  record.job_id = 7;
  record.state = JournalTerminalState::kDone;
  record.has_response = true;
  RankedSubgraph ad;
  ad.vertices = {0, 1, 3};
  ad.value = 1.25;
  ad.ratio_bound = 0.5;
  record.response.average_degree.push_back(ad);
  RankedSubgraph ga;
  ga.vertices = {0, 3};
  ga.weights = {0.5, 0.5};
  ga.value = 0.75;
  ga.positive_clique = true;
  record.response.graph_affinity.push_back(ga);
  return record;
}

void WriteGoldenStore(const std::string& path) {
  std::filesystem::remove(path);
  Result<std::shared_ptr<ArtifactStore>> store = ArtifactStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->PutGraph(GoldenGraph()).ok());
  const auto [key, pipeline] = GoldenPipeline();
  ASSERT_TRUE((*store)->PutPipeline(key, pipeline).ok());
}

JobJournalOptions AlwaysOptions() {
  JobJournalOptions options;
  options.durability = JournalDurability::kAlways;
  return options;
}

void WriteGoldenJournal(const std::string& path) {
  std::filesystem::remove(path);
  Result<std::shared_ptr<JobJournal>> journal =
      JobJournal::Open(path, AlwaysOptions());
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_TRUE((*journal)->AppendAdmitted(GoldenAdmitted()).ok());
  ASSERT_TRUE((*journal)->AppendStarted(7).ok());
  ASSERT_TRUE((*journal)->AppendDone(GoldenDone()).ok());
}

// ---- golden bytes ----------------------------------------------------------

TEST(RecordLogTest, GoldenStoreBytes) {
  const std::string path = TempPath("golden.dcs");
  WriteGoldenStore(path);
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(bytes.size(), 680u);
  EXPECT_EQ(BytesChecksum(bytes), 0x79ab64a99ece8c56ull);
}

TEST(RecordLogTest, GoldenJournalBytes) {
  const std::string path = TempPath("golden.dcsj");
  WriteGoldenJournal(path);
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(bytes.size(), 422u);
  EXPECT_EQ(BytesChecksum(bytes), 0x801f5519ede694e6ull);
}

// ---- fault-site hit counts -------------------------------------------------

TEST(RecordLogTest, FaultSiteHitCounts) {
  const char* const sites[] = {
      fault_sites::kStoreRead,     fault_sites::kStoreAppend,
      fault_sites::kStoreFlock,    fault_sites::kJournalAppend,
      fault_sites::kJournalFsync,  fault_sites::kJournalReplay};
  FaultInjection& faults = FaultInjection::Global();
  faults.Reset();
  for (const char* site : sites) {
    FaultSpec spec;
    spec.site = site;
    spec.fail = false;  // count hits, never inject
    ASSERT_TRUE(faults.Arm(spec).ok());
  }

  const std::string store_path = TempPath("hits.dcs");
  const std::string journal_path = TempPath("hits.dcsj");
  std::filesystem::remove(store_path);
  std::filesystem::remove(journal_path);
  {
    Result<std::shared_ptr<ArtifactStore>> store =
        ArtifactStore::Open(store_path);
    ASSERT_TRUE(store.ok());
    const Graph graph = GoldenGraph();
    ASSERT_TRUE((*store)->PutGraph(graph).ok());
    ASSERT_TRUE((*store)->LoadGraph(graph.ContentFingerprint()).ok());
    auto [key, pipeline] = GoldenPipeline();
    (*store)->PutPipelineAsync(
        key, std::make_shared<const PreparedPipeline>(std::move(pipeline)));
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE(ArtifactStore::Fsck(store_path).ok());
    store = ArtifactStore::Open(store_path);
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE((*store)->LoadPipeline(key).ok());
  }
  {
    Result<std::shared_ptr<JobJournal>> journal =
        JobJournal::Open(journal_path, AlwaysOptions());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendAdmitted(GoldenAdmitted()).ok());
    ASSERT_TRUE((*journal)->AppendStarted(7).ok());
    ASSERT_TRUE((*journal)->AppendDone(GoldenDone()).ok());
    ASSERT_TRUE(JobJournal::Fsck(journal_path).ok());
    journal = JobJournal::Open(journal_path, AlwaysOptions());
    ASSERT_TRUE(journal.ok());
    Result<std::vector<JournalReplayJob>> replayed = (*journal)->Replay();
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(replayed->size(), 1u);
    ASSERT_TRUE((*journal)->TruncateUnreliableTail().ok());
  }

  // store.flock: 7 store operations (open, put, load, async put, fsck,
  // reopen, load) and 7 journal ones (open, 3 appends, fsck, reopen,
  // replay); the clean-tail truncation takes no lock.
  EXPECT_EQ(faults.hits(fault_sites::kStoreRead), 2u);
  EXPECT_EQ(faults.hits(fault_sites::kStoreAppend), 2u);
  EXPECT_EQ(faults.hits(fault_sites::kStoreFlock), 14u);
  EXPECT_EQ(faults.hits(fault_sites::kJournalAppend), 3u);
  EXPECT_EQ(faults.hits(fault_sites::kJournalFsync), 3u);
  EXPECT_EQ(faults.hits(fault_sites::kJournalReplay), 3u);
  faults.Reset();
}

// ---- one truncation rule --------------------------------------------------

TEST(RecordLogTest, CorruptSuperblockCountsDiscardedBytes) {
  const std::string path = TempPath("bad_superblock.dcs");
  WriteGoldenStore(path);
  std::string bytes = ReadFileBytes(path);
  bytes[0] = static_cast<char>(bytes[0] ^ 0x01);  // superblock magic
  WriteFileBytes(path, bytes);

  Result<std::shared_ptr<ArtifactStore>> store = ArtifactStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->stats().truncated_tail_bytes, 0u);
  ASSERT_TRUE((*store)->PutGraph(GoldenGraph()).ok());
  EXPECT_EQ((*store)->stats().truncated_tail_bytes, bytes.size());
}

// ---- mutation sweep --------------------------------------------------------

std::string GraphImage(const Graph& graph) {
  std::string out;
  AppendGraphBytes(graph, &out);
  return out;
}

template <typename T>
std::string VectorBits(const std::vector<T>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(T));
}

// Bit-level image of everything a pipeline record carries.
std::string PipelineImage(const PreparedPipeline& p) {
  const SmartInitBounds& b = p.smart_bounds;
  return GraphImage(p.difference) + GraphImage(p.positive_part) +
         VectorBits(b.w) + VectorBits(b.tau) + VectorBits(b.mu) +
         VectorBits(b.max_incident) + VectorBits(b.order) +
         (p.has_ga_artifacts ? "G" : "g") +
         (p.validated_nonnegative ? "V" : "v");
}

// Opens a mutated store image and checks the trust model: Open succeeds,
// each load returns the original artifact bit for bit or NotFound, and the
// next append leaves the file fsck-clean.
void CheckStoreMutant(const std::string& path, const std::string& bytes,
                      const std::string& what) {
  WriteFileBytes(path, bytes);
  Result<std::shared_ptr<ArtifactStore>> store = ArtifactStore::Open(path);
  ASSERT_TRUE(store.ok()) << what << ": " << store.status().ToString();
  const Graph graph = GoldenGraph();
  Result<Graph> loaded = (*store)->LoadGraph(graph.ContentFingerprint());
  if (loaded.ok()) {
    EXPECT_EQ(GraphImage(*loaded), GraphImage(graph)) << what;
  } else {
    EXPECT_TRUE(loaded.status().IsNotFound()) << what;
  }
  const auto [key, pipeline] = GoldenPipeline();
  Result<PreparedPipeline> loaded_pipeline = (*store)->LoadPipeline(key);
  if (loaded_pipeline.ok()) {
    EXPECT_EQ(PipelineImage(*loaded_pipeline), PipelineImage(pipeline))
        << what;
  } else {
    EXPECT_TRUE(loaded_pipeline.status().IsNotFound()) << what;
  }
  ASSERT_TRUE((*store)->PutGraph(graph).ok()) << what;
  Result<ArtifactFsckReport> fsck = ArtifactStore::Fsck(path);
  ASSERT_TRUE(fsck.ok()) << what;
  EXPECT_TRUE(fsck->superblock_ok) << what;
  EXPECT_EQ(fsck->corrupt_pages, 0u) << what;
  EXPECT_EQ(fsck->unreliable_tail_bytes, 0u) << what;
}

// The journal counterpart: Replay returns the original records or drops
// them, never a different record, and the next append leaves the file
// fsck-clean. One exception is by design: a first frame whose framing is
// intact but whose payload fails its checksum is dropped by Replay and kept
// on disk (the journal never truncates behind a frame that later records
// may follow), so Fsck still reports it — Replay must have counted it.
void CheckJournalMutant(const std::string& path, const std::string& bytes,
                        const std::string& what) {
  WriteFileBytes(path, bytes);
  Result<std::shared_ptr<JobJournal>> journal =
      JobJournal::Open(path, AlwaysOptions());
  ASSERT_TRUE(journal.ok()) << what << ": " << journal.status().ToString();
  Result<std::vector<JournalReplayJob>> replayed = (*journal)->Replay();
  ASSERT_TRUE(replayed.ok()) << what;
  ASSERT_LE(replayed->size(), 1u) << what;
  if (!replayed->empty()) {
    const JournalReplayJob& job = (*replayed)[0];
    const JournalAdmittedRecord admitted = GoldenAdmitted();
    EXPECT_EQ(job.admitted.job_id, admitted.job_id) << what;
    EXPECT_EQ(job.admitted.tenant, admitted.tenant) << what;
    EXPECT_EQ(job.admitted.admission_index, admitted.admission_index) << what;
    EXPECT_EQ(JobJournal::EncodeRequest(job.admitted.request),
              JobJournal::EncodeRequest(admitted.request))
        << what;
    if (job.done) {
      const JournalDoneRecord done = GoldenDone();
      EXPECT_EQ(job.done_record.job_id, done.job_id) << what;
      EXPECT_EQ(job.done_record.state, done.state) << what;
      EXPECT_EQ(job.done_record.status_code, done.status_code) << what;
      EXPECT_EQ(job.done_record.status_message, done.status_message) << what;
      EXPECT_TRUE(job.done_record.has_response) << what;
      EXPECT_EQ(job.done_record.response_fingerprint,
                JobJournal::ResponseFingerprint(done.response))
          << what;
      EXPECT_EQ(JobJournal::EncodeResponseContent(job.done_record.response),
                JobJournal::EncodeResponseContent(done.response))
          << what;
    }
  }
  ASSERT_TRUE((*journal)->AppendStarted(8).ok()) << what;
  Result<JournalFsckReport> fsck = JobJournal::Fsck(path);
  ASSERT_TRUE(fsck.ok()) << what;
  EXPECT_TRUE(fsck->superblock_ok) << what;
  if (fsck->corrupt_pages != 0 || fsck->unreliable_tail_bytes != 0) {
    EXPECT_EQ(fsck->valid_records, 0u) << what;
    EXPECT_GE((*journal)->stats().corrupt_pages, 1u) << what;
    EXPECT_TRUE(replayed->empty()) << what;
  }
}

// Every truncation length, then every single-bit flip of the superblock and
// the first frame header (bytes [0, 64)). Flips in the superblock's
// reserved word and the frame key are not covered by any checksum; they
// must still never surface a wrong artifact or record.
template <typename Check>
void SweepMutants(const std::string& golden, const std::string& path,
                  Check check) {
  for (size_t length = 0; length < golden.size(); ++length) {
    check(path, golden.substr(0, length),
          "truncated to " + std::to_string(length));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (size_t bit = 0; bit < 64 * 8; ++bit) {
    std::string mutant = golden;
    mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    check(path, mutant, "bit " + std::to_string(bit) + " flipped");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RecordLogTest, StoreMutantsNeverSurfaceWrongArtifacts) {
  const std::string path = TempPath("mutant.dcs");
  WriteGoldenStore(path);
  const std::string golden = ReadFileBytes(path);
  ASSERT_GT(golden.size(), 64u);
  SweepMutants(golden, path, CheckStoreMutant);
}

TEST(RecordLogTest, JournalMutantsNeverReplayWrongRecords) {
  const std::string path = TempPath("mutant.dcsj");
  WriteGoldenJournal(path);
  const std::string golden = ReadFileBytes(path);
  ASSERT_GT(golden.size(), 64u);
  SweepMutants(golden, path, CheckJournalMutant);
}

}  // namespace
}  // namespace dcs
