// JobJournal tests: request/response serialization round trips, the
// append-then-reopen cycle, Replay's exactly-once fold, and the trust
// model — a torn tail and a flipped bit must read as absent, be counted,
// and converge back to fsck-clean via tail truncation. On a real service:
// durable admission costs < 5% of a storm's wall, a recovered backlog
// mines exactly what synchronous calls mine, and a journal whose request
// sets the reserved flag byte still replays.

#include "store/job_journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/miner_session.h"
#include "api/mining.h"
#include "api/mining_service.h"
#include "gen/coauthor.h"
#include "store/record_log.h"
#include "test_util.h"
#include "util/byte_codec.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace dcs {
namespace {

std::string JournalPath(const char* name) {
  return ::testing::TempDir() + "job_journal_test_" + name + ".dcsj";
}

std::shared_ptr<JobJournal> OpenOrDie(const std::string& path,
                                      JobJournalOptions options = {}) {
  Result<std::shared_ptr<JobJournal>> journal =
      JobJournal::Open(path, options);
  DCS_CHECK(journal.ok()) << journal.status().ToString();
  return std::move(journal).value();
}

std::span<const uint8_t> AsBytes(const std::string& bytes) {
  return {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()};
}

// A request exercising every serialized field, including both optionals.
MiningRequest FullRequest() {
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  request.alpha = 1.625;
  request.flip = true;
  request.discretize = DiscretizeSpec{};
  request.discretize->strong_pos = 6.5;
  request.clamp_weights_above = 2.25;
  request.top_k = 4;
  request.disjoint = false;
  request.min_density = 0.125;
  request.min_affinity = 0.0625;
  request.ga_solver.parallelism = 3;
  request.warm_start = true;
  request.priority = -7;
  request.deadline_seconds = 12.5;
  request.ad_solver_name = "dcsad";
  request.ga_solver_name = "custom-ga";
  return request;
}

MiningResponse SampleResponse() {
  MiningResponse response;
  RankedSubgraph ad;
  ad.vertices = {0, 2, 3};
  ad.value = 2.3333333333333335;
  ad.ratio_bound = 0.5;
  response.average_degree.push_back(ad);
  RankedSubgraph ga;
  ga.vertices = {1, 2};
  ga.weights = {0.5, 0.5};
  ga.value = 1.5000000000000002;
  ga.positive_clique = true;
  response.graph_affinity.push_back(ga);
  // Telemetry must NOT round-trip: it is process state, not mined content.
  response.telemetry.cd_iterations = 42;
  return response;
}

TEST(JobJournalTest, RequestRoundTripsBitExactly) {
  const MiningRequest request = FullRequest();
  const std::string encoded = JobJournal::EncodeRequest(request);
  Result<MiningRequest> decoded = JobJournal::DecodeRequest(AsBytes(encoded));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(JobJournal::EncodeRequest(*decoded), encoded);
  EXPECT_EQ(decoded->measure, Measure::kGraphAffinity);
  EXPECT_EQ(decoded->alpha, 1.625);
  ASSERT_TRUE(decoded->discretize.has_value());
  EXPECT_EQ(decoded->discretize->strong_pos, 6.5);
  ASSERT_TRUE(decoded->clamp_weights_above.has_value());
  EXPECT_EQ(*decoded->clamp_weights_above, 2.25);
  EXPECT_EQ(decoded->priority, -7);
  EXPECT_EQ(decoded->ga_solver_name, "custom-ga");
  EXPECT_EQ(decoded->ga_solver.cancel, nullptr);
}

TEST(JobJournalTest, DecodeRequestRejectsGarbage) {
  const std::string encoded = JobJournal::EncodeRequest(MiningRequest{});
  // Truncation at every prefix length must fail, never crash or misparse.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(
        JobJournal::DecodeRequest(AsBytes(encoded.substr(0, len))).ok())
        << "accepted prefix of " << len;
  }
  // Trailing bytes are rejected too: a parse must consume the exact image.
  EXPECT_FALSE(JobJournal::DecodeRequest(AsBytes(encoded + "x")).ok());
  // Out-of-range measure enum.
  std::string bad = encoded;
  bad[0] = 7;
  EXPECT_FALSE(JobJournal::DecodeRequest(AsBytes(bad)).ok());
}

TEST(JobJournalTest, ResponseContentRoundTripsWithoutTelemetry) {
  const MiningResponse response = SampleResponse();
  const std::string encoded = JobJournal::EncodeResponseContent(response);
  Result<MiningResponse> decoded =
      JobJournal::DecodeResponseContent(AsBytes(encoded));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(JobJournal::EncodeResponseContent(*decoded), encoded);
  ASSERT_EQ(decoded->average_degree.size(), 1u);
  EXPECT_EQ(decoded->average_degree[0].vertices,
            (std::vector<VertexId>{0, 2, 3}));
  EXPECT_EQ(decoded->average_degree[0].value, 2.3333333333333335);
  ASSERT_EQ(decoded->graph_affinity.size(), 1u);
  EXPECT_TRUE(decoded->graph_affinity[0].positive_clique);
  // Telemetry is deliberately excluded from the image.
  EXPECT_EQ(decoded->telemetry.cd_iterations, 0u);
  EXPECT_EQ(JobJournal::ResponseFingerprint(response),
            JobJournal::ResponseFingerprint(*decoded));
}

TEST(JobJournalTest, OpenCreatesAndMissingFailsWithoutCreate) {
  const std::string path = JournalPath("open");
  std::filesystem::remove(path);
  {
    auto journal = OpenOrDie(path);
    EXPECT_EQ(journal->stats().admitted_records, 0u);
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  JobJournalOptions no_create;
  no_create.create_if_missing = false;
  Result<std::shared_ptr<JobJournal>> missing =
      JobJournal::Open(JournalPath("does_not_exist"), no_create);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(JobJournalTest, AppendReopenReplayFoldsExactlyOnce) {
  const std::string path = JournalPath("replay");
  std::filesystem::remove(path);
  {
    auto journal = OpenOrDie(path);
    // Job 7: admitted, started, done (with a response). Job 9: admitted
    // only. Job 11: admitted + failed. Admission order: 9 before 7.
    JournalAdmittedRecord nine;
    nine.job_id = 9;
    nine.tenant = 1;
    nine.admission_index = 1;
    nine.request = FullRequest();
    ASSERT_TRUE(journal->AppendAdmitted(nine).ok());

    JournalAdmittedRecord seven;
    seven.job_id = 7;
    seven.tenant = 0;
    seven.admission_index = 2;
    ASSERT_TRUE(journal->AppendAdmitted(seven).ok());
    ASSERT_TRUE(journal->AppendStarted(7).ok());
    JournalDoneRecord done;
    done.job_id = 7;
    done.state = JournalTerminalState::kDone;
    done.has_response = true;
    done.response = SampleResponse();
    ASSERT_TRUE(journal->AppendDone(done).ok());
    // A second Done for job 7 must lose to the first (exactly-once).
    JournalDoneRecord dupe = done;
    dupe.response.average_degree.clear();
    ASSERT_TRUE(journal->AppendDone(dupe).ok());

    JournalAdmittedRecord eleven;
    eleven.job_id = 11;
    eleven.tenant = 0;
    eleven.admission_index = 3;
    ASSERT_TRUE(journal->AppendAdmitted(eleven).ok());
    JournalDoneRecord failed;
    failed.job_id = 11;
    failed.state = JournalTerminalState::kFailed;
    failed.status_code = 2;  // kNotFound
    failed.status_message = "no such solver";
    ASSERT_TRUE(journal->AppendDone(failed).ok());
    // A Started record with no Admitted record is dropped by the fold.
    ASSERT_TRUE(journal->AppendStarted(99).ok());
    ASSERT_TRUE(journal->Flush().ok());
  }

  auto reopened = OpenOrDie(path);
  const JobJournalStats stats = reopened->stats();
  EXPECT_EQ(stats.admitted_records, 3u);
  EXPECT_EQ(stats.started_records, 2u);
  EXPECT_EQ(stats.done_records, 3u);
  Result<std::vector<JournalReplayJob>> replayed = reopened->Replay();
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed->size(), 3u);
  // Admission order: 9 (index 1), 7 (index 2), 11 (index 3).
  EXPECT_EQ((*replayed)[0].admitted.job_id, 9u);
  EXPECT_FALSE((*replayed)[0].started);
  EXPECT_FALSE((*replayed)[0].done);
  EXPECT_EQ(JobJournal::EncodeRequest((*replayed)[0].admitted.request),
            JobJournal::EncodeRequest(FullRequest()));
  EXPECT_EQ((*replayed)[1].admitted.job_id, 7u);
  EXPECT_TRUE((*replayed)[1].started);
  ASSERT_TRUE((*replayed)[1].done);
  ASSERT_TRUE((*replayed)[1].done_record.has_response);
  // First Done wins: the response is the full one, bit-identical.
  EXPECT_EQ(
      JobJournal::EncodeResponseContent((*replayed)[1].done_record.response),
      JobJournal::EncodeResponseContent(SampleResponse()));
  EXPECT_EQ((*replayed)[2].admitted.job_id, 11u);
  ASSERT_TRUE((*replayed)[2].done);
  EXPECT_EQ((*replayed)[2].done_record.state, JournalTerminalState::kFailed);
  EXPECT_EQ((*replayed)[2].done_record.status_code, 2u);
  EXPECT_EQ((*replayed)[2].done_record.status_message, "no such solver");
}

TEST(JobJournalTest, TornTailReadsAsAbsentAndTruncatesClean) {
  const std::string path = JournalPath("torn");
  std::filesystem::remove(path);
  {
    auto journal = OpenOrDie(path);
    JournalAdmittedRecord first;
    first.job_id = 1;
    first.admission_index = 1;
    ASSERT_TRUE(journal->AppendAdmitted(first).ok());
    JournalAdmittedRecord second;
    second.job_id = 2;
    second.admission_index = 2;
    ASSERT_TRUE(journal->AppendAdmitted(second).ok());
    ASSERT_TRUE(journal->Flush().ok());
  }
  // Tear the tail: chop 5 bytes off the last frame, as a crash mid-write
  // would.
  const uintmax_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  Result<JournalFsckReport> before = JobJournal::Fsck(path);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->superblock_ok);
  EXPECT_EQ(before->valid_records, 1u);
  EXPECT_GT(before->unreliable_tail_bytes, 0u);

  auto reopened = OpenOrDie(path);
  Result<std::vector<JournalReplayJob>> replayed = reopened->Replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 1u);  // the torn job reads as absent
  EXPECT_EQ((*replayed)[0].admitted.job_id, 1u);
  // Recovery converges the file back to fsck-clean without an append.
  ASSERT_TRUE(reopened->TruncateUnreliableTail().ok());
  EXPECT_GE(reopened->stats().truncations, 1u);
  EXPECT_GT(reopened->stats().truncated_tail_bytes, 0u);
  Result<JournalFsckReport> after = JobJournal::Fsck(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->unreliable_tail_bytes, 0u);
  EXPECT_EQ(after->valid_records, 1u);
}

TEST(JobJournalTest, FlippedPayloadBitReadsAsAbsent) {
  const std::string path = JournalPath("bitflip");
  std::filesystem::remove(path);
  uint64_t first_offset = 0;
  uint64_t first_payload = 0;
  {
    auto journal = OpenOrDie(path);
    JournalAdmittedRecord first;
    first.job_id = 1;
    first.admission_index = 1;
    ASSERT_TRUE(journal->AppendAdmitted(first).ok());
    JournalAdmittedRecord second;
    second.job_id = 2;
    second.admission_index = 2;
    ASSERT_TRUE(journal->AppendAdmitted(second).ok());
    ASSERT_TRUE(journal->Flush().ok());
    const std::vector<JournalRecordInfo> records = journal->ListRecords();
    ASSERT_EQ(records.size(), 2u);
    first_offset = records[0].offset;
    first_payload = records[0].payload_bytes;
  }
  // Flip one payload bit of the *first* record: structure stays walkable,
  // so the second record must survive while the first reads as absent.
  {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(static_cast<std::streamoff>(first_offset + 32 +
                                           first_payload / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(first_offset + 32 +
                                           first_payload / 2));
    file.write(&byte, 1);
  }
  Result<JournalFsckReport> fsck = JobJournal::Fsck(path);
  ASSERT_TRUE(fsck.ok());
  EXPECT_EQ(fsck->corrupt_pages, 1u);

  auto reopened = OpenOrDie(path);
  Result<std::vector<JournalReplayJob>> replayed = reopened->Replay();
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 1u);
  EXPECT_EQ((*replayed)[0].admitted.job_id, 2u);
  EXPECT_GE(reopened->stats().corrupt_pages, 1u);
}

TEST(JobJournalTest, AlwaysDurabilityFsyncsPerAppend) {
  const std::string path = JournalPath("always");
  std::filesystem::remove(path);
  JobJournalOptions options;
  options.durability = JournalDurability::kAlways;
  auto journal = OpenOrDie(path, options);
  JournalAdmittedRecord record;
  record.job_id = 1;
  record.admission_index = 1;
  ASSERT_TRUE(journal->AppendAdmitted(record).ok());
  ASSERT_TRUE(journal->AppendStarted(1).ok());
  const JobJournalStats stats = journal->stats();
  EXPECT_EQ(stats.appended_records, 2u);
  EXPECT_GE(stats.fsyncs, 2u);
  EXPECT_GT(stats.file_bytes, 32u);
}

// ---- durable admission on a real service ------------------------------------

// A small planted co-author pair: one solve must dwarf one journal append,
// or the overhead bound below would measure toy jobs, not the journal.
CoauthorData StormPair() {
  Rng rng(20180607);
  CoauthorConfig config;
  config.num_authors = 1500;
  config.emerging_sizes = {4, 7};
  config.disappearing_sizes = {6, 2, 8};
  Result<CoauthorData> data = GenerateCoauthorData(config, &rng);
  DCS_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

// Two request shapes cycled across a storm, so the journal carries distinct
// serialized requests and the pipeline cache sees reuse.
MiningRequest StormRequest(size_t i) {
  MiningRequest request;
  request.measure = Measure::kGraphAffinity;
  request.alpha = i % 2 == 0 ? 1.0 : 2.0;
  return request;
}

MinerSession MustSession(const CoauthorData& data) {
  Result<MinerSession> session = MinerSession::Create(data.g1, data.g2);
  DCS_CHECK(session.ok()) << session.status().ToString();
  return std::move(*session);
}

// What synchronous mining answers for the first `num_jobs` storm requests.
std::string SynchronousAnswers(const CoauthorData& data, size_t num_jobs) {
  MinerSession session = MustSession(data);
  std::string out;
  for (size_t i = 0; i < num_jobs; ++i) {
    Result<MiningResponse> response = session.Mine(StormRequest(i));
    DCS_CHECK(response.ok()) << response.status().ToString();
    out += ::dcs::testing::SerializeSubgraphs(*response) + "#";
  }
  return out;
}

struct Storm {
  double wall_ms = 0.0;
  uint64_t journal_appends = 0;
  std::string mined;  // every response in job order
};

// Submits `num_jobs` requests to a fresh service and waits for each in
// order. With `journal_path` set, the wall carries the full write-ahead
// cost of the submit and finish paths.
Storm RunStorm(const CoauthorData& data, const std::string& journal_path,
               size_t num_jobs) {
  Storm out;
  WallTimer timer;
  MiningServiceOptions options;
  options.journal_path = journal_path;
  MiningService service(options);
  DCS_CHECK(service.AddTenant(MustSession(data)).ok());
  std::vector<JobId> jobs;
  for (size_t i = 0; i < num_jobs; ++i) {
    Result<JobId> job = service.Submit(0, StormRequest(i));
    DCS_CHECK(job.ok()) << job.status().ToString();
    jobs.push_back(*job);
  }
  for (const JobId id : jobs) {
    Result<JobStatus> status = service.Wait(id);
    DCS_CHECK(status.ok() && status->state == JobState::kDone)
        << "storm job " << id << " did not finish done";
    out.mined += ::dcs::testing::SerializeSubgraphs(status->response) + "#";
  }
  out.wall_ms = timer.Millis();
  if (!journal_path.empty()) {
    Result<JobJournalStats> stats = service.journal_stats();
    DCS_CHECK(stats.ok()) << stats.status().ToString();
    out.journal_appends = stats->appended_records;
  }
  return out;
}

// The isolated cost of one Admitted append under group commit (the fsync
// stays off this path exactly as on the service's Submit path).
double PerAppendMicros(const std::string& path, uint64_t iters) {
  std::filesystem::remove(path);
  JobJournalOptions options;
  options.flush_interval_ms = 100.0;  // keep the flusher out of the window
  auto journal = OpenOrDie(path, options);
  JournalAdmittedRecord record;
  record.request = StormRequest(0);
  WallTimer timer;
  for (uint64_t i = 0; i < iters; ++i) {
    record.job_id = i + 1;
    record.admission_index = i + 1;
    DCS_CHECK(journal->AppendAdmitted(record).ok());
  }
  return timer.Seconds() * 1e6 / static_cast<double>(iters);
}

// The durable-admission tax on the Submit ack path: one Admitted append per
// job × the measured per-append cost must stay under 5% of the no-journal
// storm's wall. Started/Done appends ride the executor paths, off the ack
// path. The cost is modeled because the wall delta of two storms is noise
// at this size; the journaled storm must still answer bit-identically.
TEST(JobJournalTest, AdmissionAppendsCostUnderFivePercentOfAStorm) {
  constexpr size_t kJobs = 4;
  const CoauthorData data = StormPair();
  const std::string path = JournalPath("admission_cost");
  const double per_append_us = PerAppendMicros(path, 5000);

  std::filesystem::remove(path);
  const Storm baseline = RunStorm(data, "", kJobs);
  std::filesystem::remove(path);
  const Storm journaled = RunStorm(data, path, kJobs);
  std::filesystem::remove(path);

  EXPECT_EQ(baseline.mined, SynchronousAnswers(data, kJobs));
  EXPECT_EQ(journaled.mined, baseline.mined);
  EXPECT_GE(journaled.journal_appends, 3 * kJobs)
      << "expected an Admitted, Started and Done record per job";
  ASSERT_GT(baseline.wall_ms, 0.0);
  const double overhead_pct =
      100.0 * (static_cast<double>(kJobs) * per_append_us / 1e3) /
      baseline.wall_ms;
  EXPECT_LT(overhead_pct, 5.0)
      << kJobs << " appends x " << per_append_us << " us vs a "
      << baseline.wall_ms << " ms baseline";
}

// The image a service killed right after acking `depth` Submits leaves
// behind: Admitted records only. A restarted service recovers all of them,
// and once its tenant re-registers they mine exactly what synchronous
// calls mine.
TEST(JobJournalTest, RecoveredBacklogMinesLikeSynchronousCalls) {
  constexpr size_t kDepth = 4;
  const CoauthorData data = StormPair();
  const std::string path = JournalPath("backlog");
  std::filesystem::remove(path);
  {
    auto journal = OpenOrDie(path);
    for (size_t i = 0; i < kDepth; ++i) {
      JournalAdmittedRecord record;
      record.job_id = i + 1;
      record.tenant = 0;
      record.admission_index = i + 1;
      record.request = StormRequest(i);
      ASSERT_TRUE(journal->AppendAdmitted(record).ok());
    }
    ASSERT_TRUE(journal->Flush().ok());
  }

  MiningServiceOptions options;
  options.journal_path = path;
  MiningService service(options);
  ASSERT_TRUE(service.AddTenant(MustSession(data)).ok());
  service.Drain();
  const std::vector<JobId> recovered = service.recovered_jobs();
  ASSERT_EQ(recovered.size(), kDepth);
  std::string mined;
  for (const JobId id : recovered) {
    Result<JobStatus> status = service.Poll(id);
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    ASSERT_EQ(status->state, JobState::kDone) << "recovered job " << id;
    mined += ::dcs::testing::SerializeSubgraphs(status->response) + "#";
  }
  EXPECT_EQ(mined, SynchronousAnswers(data, kDepth));
  // Each re-run journals its Started and Done records.
  Result<JobJournalStats> stats = service.journal_stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->appended_records, 2 * kDepth);
}

// Request flag byte 7 once carried the fast_math option (a reassociating
// affinity reduction, since removed) and is reserved now: an image with it
// set decodes to the same request as one with it clear, and a journal that
// holds such an image replays into a job mining the exact answer.
TEST(JobJournalTest, ReservedFlagByteSevenStillReplays) {
  constexpr size_t kFlagSeven = 4 + 8 + 7;  // u32 measure, f64 alpha, flags
  const MiningRequest request = StormRequest(0);
  const std::string clean = JobJournal::EncodeRequest(request);
  ASSERT_EQ(clean[kFlagSeven], 0);
  std::string legacy = clean;
  legacy[kFlagSeven] = 1;
  Result<MiningRequest> decoded = JobJournal::DecodeRequest(AsBytes(legacy));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(JobJournal::EncodeRequest(*decoded), clean);
  std::string invalid = clean;
  invalid[kFlagSeven] = 2;
  EXPECT_FALSE(JobJournal::DecodeRequest(AsBytes(invalid)).ok());

  // Frame the legacy image as an Admitted record, byte for byte what
  // JobJournal::AppendAdmitted wrote when the flag was live. The format
  // mirrors the journal's own (store/job_journal.cc kJournalFormat).
  const std::string path = JournalPath("reserved_flag");
  std::filesystem::remove(path);
  {
    const RecordLogFormat journal_format = {
        "job journal", 0x314C4E524A534344ull, JobJournal::kFormatVersion,
        JobJournal::kDoneRecord};
    Result<RecordLog> log =
        RecordLog::Open(path, journal_format, /*create_if_missing=*/true);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    log->Scan();
    std::string payload;
    AppendU64(/*job_id=*/1, &payload);
    AppendU32(/*tenant=*/0, &payload);
    AppendU64(/*admission_index=*/1, &payload);
    payload += legacy;
    ASSERT_TRUE(log->Append(JobJournal::kAdmittedRecord, 1, payload,
                            fault_sites::kJournalAppend)
                    .ok());
    ASSERT_TRUE(log->Sync().ok());
  }

  const CoauthorData data = StormPair();
  MiningServiceOptions options;
  options.journal_path = path;
  MiningService service(options);
  ASSERT_EQ(service.recovered_jobs(), std::vector<JobId>{1});
  ASSERT_TRUE(service.AddTenant(MustSession(data)).ok());
  service.Drain();
  Result<JobStatus> status = service.Poll(1);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  ASSERT_EQ(status->state, JobState::kDone);
  EXPECT_EQ(::dcs::testing::SerializeSubgraphs(status->response) + "#",
            SynchronousAnswers(data, 1));
}

}  // namespace
}  // namespace dcs
