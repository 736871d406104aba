// dcs_store — inspect and check persistent artifact store and job journal
// files.
//
// Usage:
//   dcs_store stat <path>             summarize the store (version, records, bytes)
//   dcs_store fsck [--quiet] <path>   verify the superblock and every page checksum
//   dcs_store ls <path>               list the indexed records, offset-ascending
//   dcs_store journal stat <path>     summarize a job journal (records by type)
//   dcs_store journal fsck [--quiet] <path>
//                                     verify the journal superblock and checksums
//   dcs_store journal ls <path>       list the journal frames, offset-ascending
//
// `stat` and `ls` open a handle (indexing only valid records, as a session
// or service would see them); `fsck` is a read-only offline scan that
// reports corruption without modifying the file. Exit codes are stable for
// scripting: 0 = clean, 1 = corruption found (or the file is unreadable),
// 2 = usage error. `--quiet` suppresses the report and leaves only the exit
// code — `dcs_store fsck --quiet p || alert` is the scripted health check.
// This tool consumes the api/ facade only (see tools/check_layering.sh).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/artifact_store.h"
#include "api/job_journal.h"

namespace {

using namespace dcs;

void PrintUsage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [journal] <command> [--quiet] <path>\n\n"
      "  stat <path>             summarize the store (version, records, "
      "bytes)\n"
      "  fsck [--quiet] <path>   verify the superblock and every page "
      "checksum\n"
      "  ls <path>               list the indexed records, offset-ascending\n"
      "  journal stat <path>     summarize a job journal (records by type)\n"
      "  journal fsck [--quiet] <path>\n"
      "                          verify the journal superblock and checksums\n"
      "  journal ls <path>       list the journal frames, offset-ascending\n\n"
      "exit codes: 0 clean, 1 corruption found or file unreadable, 2 usage\n",
      prog);
}

// Opens a handle without creating the file: inspecting a path that does not
// exist is an error, not an empty store.
Result<std::shared_ptr<ArtifactStore>> OpenExisting(const std::string& path) {
  ArtifactStoreOptions options;
  options.create_if_missing = false;
  return ArtifactStore::Open(path, options);
}

Result<std::shared_ptr<JobJournal>> OpenExistingJournal(
    const std::string& path) {
  JobJournalOptions options;
  options.create_if_missing = false;
  return JobJournal::Open(path, options);
}

int RunStat(const std::string& path) {
  Result<std::shared_ptr<ArtifactStore>> store = OpenExisting(path);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  const ArtifactStoreStats stats = (*store)->stats();
  std::printf("store:            %s\n", path.c_str());
  std::printf("format version:   %u\n", ArtifactStore::kFormatVersion);
  std::printf("graph records:    %llu\n",
              static_cast<unsigned long long>(stats.graph_records));
  std::printf("pipeline records: %llu\n",
              static_cast<unsigned long long>(stats.pipeline_records));
  std::printf("corrupt pages:    %llu\n",
              static_cast<unsigned long long>(stats.corrupt_pages));
  std::printf("file bytes:       %llu\n",
              static_cast<unsigned long long>(stats.file_bytes));
  return 0;
}

// The one fsck printer: the store and the journal share the record-log
// report (ArtifactFsckReport and JournalFsckReport are the same type).
int RunFsck(const Result<ArtifactFsckReport>& report, bool quiet) {
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  // An unreliable tail always comes with a corrupt page or a bad
  // superblock, so it needs no clause of its own.
  const bool clean = report->superblock_ok && report->corrupt_pages == 0;
  if (quiet) return clean ? 0 : 1;
  std::printf("superblock:            %s\n",
              report->superblock_ok ? "ok" : "INVALID");
  if (report->superblock_ok) {
    std::printf("format version:        %u\n", report->format_version);
  }
  std::printf("valid records:         %llu\n",
              static_cast<unsigned long long>(report->valid_records));
  std::printf("corrupt pages:         %llu\n",
              static_cast<unsigned long long>(report->corrupt_pages));
  std::printf("unreliable tail bytes: %llu\n",
              static_cast<unsigned long long>(report->unreliable_tail_bytes));
  std::printf("file bytes:            %llu\n",
              static_cast<unsigned long long>(report->file_bytes));
  std::printf("%s\n", clean ? "clean"
                            : "NOT CLEAN (a writer would truncate the "
                              "unreliable tail or rebuild the file)");
  return clean ? 0 : 1;
}

int RunLs(const std::string& path) {
  Result<std::shared_ptr<ArtifactStore>> store = OpenExisting(path);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  std::printf("%-10s %-18s %12s %12s\n", "type", "key", "offset", "payload");
  for (const ArtifactRecordInfo& record : (*store)->ListRecords()) {
    std::printf("%-10s %016llx %12llu %12llu\n",
                record.type == 1 ? "graph" : "pipeline",
                static_cast<unsigned long long>(record.key),
                static_cast<unsigned long long>(record.offset),
                static_cast<unsigned long long>(record.payload_bytes));
  }
  return 0;
}

int RunJournalStat(const std::string& path) {
  Result<std::shared_ptr<JobJournal>> journal = OpenExistingJournal(path);
  if (!journal.ok()) {
    std::fprintf(stderr, "%s\n", journal.status().ToString().c_str());
    return 1;
  }
  const JobJournalStats stats = (*journal)->stats();
  std::printf("journal:          %s\n", path.c_str());
  std::printf("format version:   %u\n", JobJournal::kFormatVersion);
  std::printf("admitted records: %llu\n",
              static_cast<unsigned long long>(stats.admitted_records));
  std::printf("started records:  %llu\n",
              static_cast<unsigned long long>(stats.started_records));
  std::printf("done records:     %llu\n",
              static_cast<unsigned long long>(stats.done_records));
  std::printf("incomplete jobs:  %llu\n",
              static_cast<unsigned long long>(
                  stats.admitted_records > stats.done_records
                      ? stats.admitted_records - stats.done_records
                      : 0));
  std::printf("corrupt pages:    %llu\n",
              static_cast<unsigned long long>(stats.corrupt_pages));
  std::printf("file bytes:       %llu\n",
              static_cast<unsigned long long>(stats.file_bytes));
  return 0;
}

const char* JournalRecordTypeName(uint32_t type) {
  switch (type) {
    case JobJournal::kAdmittedRecord:
      return "admitted";
    case JobJournal::kStartedRecord:
      return "started";
    case JobJournal::kDoneRecord:
      return "done";
    default:
      return "?";
  }
}

int RunJournalLs(const std::string& path) {
  Result<std::shared_ptr<JobJournal>> journal = OpenExistingJournal(path);
  if (!journal.ok()) {
    std::fprintf(stderr, "%s\n", journal.status().ToString().c_str());
    return 1;
  }
  std::printf("%-10s %12s %12s %12s\n", "type", "job", "offset", "payload");
  for (const JournalRecordInfo& record : (*journal)->ListRecords()) {
    std::printf("%-10s %12llu %12llu %12llu\n",
                JournalRecordTypeName(record.type),
                static_cast<unsigned long long>(record.job_id),
                static_cast<unsigned long long>(record.offset),
                static_cast<unsigned long long>(record.payload_bytes));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool journal = false;
  if (!args.empty() && args[0] == "journal") {
    journal = true;
    args.erase(args.begin());
  }
  bool quiet = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--quiet" || *it == "-q") {
      quiet = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (args.size() != 2) {
    PrintUsage(argv[0], stderr);
    return 2;
  }
  const std::string& command = args[0];
  const std::string& path = args[1];
  if (quiet && command != "fsck") {
    std::fprintf(stderr, "--quiet only applies to fsck\n\n");
    PrintUsage(argv[0], stderr);
    return 2;
  }
  if (journal) {
    if (command == "stat") return RunJournalStat(path);
    if (command == "fsck") return RunFsck(JobJournal::Fsck(path), quiet);
    if (command == "ls") return RunJournalLs(path);
  } else {
    if (command == "stat") return RunStat(path);
    if (command == "fsck") return RunFsck(ArtifactStore::Fsck(path), quiet);
    if (command == "ls") return RunLs(path);
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
  PrintUsage(argv[0], stderr);
  return 2;
}
