// glova-serve tests: the FairScheduler and protocol units, JobStore spool
// round-trips, and the live server over loopback TCP — submit/status/result,
// malformed requests, bounded admission, concurrent clients, WATCH streams,
// and the headline contract: a server killed mid-flight (stop without a
// final checkpoint, exactly the on-disk state a SIGKILL leaves) restarts and
// finishes every in-flight campaign bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/log.hpp"
#include "core/campaign.hpp"
#include "serve/job_store.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"

namespace glova {
namespace {

using serve::FairScheduler;
using serve::JobStore;
using serve::LineIo;

// ------------------------------------------------------------- scheduler --

TEST(FairScheduler, RoundRobinsAcrossTenants) {
  FairScheduler scheduler;
  EXPECT_FALSE(scheduler.admit("alice", "a1"));
  EXPECT_FALSE(scheduler.admit("alice", "a2"));
  EXPECT_FALSE(scheduler.admit("alice", "a3"));
  EXPECT_FALSE(scheduler.admit("bob", "b1"));
  EXPECT_EQ(scheduler.queued(), 4u);
  EXPECT_EQ(scheduler.live(), 4u);

  // alice's backlog cannot starve bob: dispatch alternates while both have
  // queued work.
  EXPECT_EQ(scheduler.next().value_or(""), "a1");
  EXPECT_EQ(scheduler.next().value_or(""), "b1");
  EXPECT_EQ(scheduler.next().value_or(""), "a2");
  EXPECT_EQ(scheduler.next().value_or(""), "a3");
  EXPECT_FALSE(scheduler.next().has_value());
  EXPECT_EQ(scheduler.queued(), 0u);
  EXPECT_EQ(scheduler.live(), 4u);  // dispatched, not yet released
}

TEST(FairScheduler, BoundedAdmissionRejectsWithAReason) {
  FairScheduler scheduler(2);
  EXPECT_FALSE(scheduler.admit("t", "j1"));
  EXPECT_FALSE(scheduler.admit("t", "j2"));
  const auto rejection = scheduler.admit("t", "j3");
  ASSERT_TRUE(rejection.has_value());
  EXPECT_NE(rejection->find("queue full"), std::string::npos);

  // A terminal job frees one admission slot — dispatching alone must not.
  EXPECT_EQ(scheduler.next().value_or(""), "j1");
  EXPECT_TRUE(scheduler.admit("t", "j4").has_value());
  scheduler.release();
  EXPECT_FALSE(scheduler.admit("t", "j4"));
}

TEST(FairScheduler, AdoptBypassesTheBoundButCountsAsLive) {
  // Spool recovery must never orphan work that was admitted before a crash,
  // even when the bound shrank; the adopted jobs still occupy live slots.
  FairScheduler scheduler(1);
  scheduler.adopt("t", "r1");
  scheduler.adopt("t", "r2");
  EXPECT_EQ(scheduler.live(), 2u);
  EXPECT_EQ(scheduler.queued(), 2u);
  EXPECT_TRUE(scheduler.admit("t", "j1").has_value());
  scheduler.release();
  scheduler.release();
  EXPECT_FALSE(scheduler.admit("t", "j1"));
}

TEST(FairScheduler, RequeueAndRemoveManageQueuedJobsOnly) {
  FairScheduler scheduler(4);
  EXPECT_FALSE(scheduler.admit("t", "j1"));
  EXPECT_EQ(scheduler.next().value_or(""), "j1");

  // Requeue after an unfinished quantum: queued again, live count unchanged.
  scheduler.requeue("t", "j1");
  EXPECT_EQ(scheduler.queued(), 1u);
  EXPECT_EQ(scheduler.live(), 1u);

  // Cancellation pulls it out of the queue; unknown ids report false.
  EXPECT_TRUE(scheduler.remove("j1"));
  EXPECT_FALSE(scheduler.remove("j1"));
  EXPECT_EQ(scheduler.queued(), 0u);
  EXPECT_EQ(scheduler.live(), 1u);  // remove() does not release the slot
  scheduler.release();
  EXPECT_EQ(scheduler.live(), 0u);
}

// -------------------------------------------------------------- protocol --

TEST(ServeProtocol, ParseRequestSplitsVerbRestAndArgs) {
  const serve::Request request = serve::parse_request("SUBMIT  alice  testcase=sal seed=3");
  EXPECT_EQ(request.verb, "SUBMIT");
  EXPECT_EQ(request.rest, "alice  testcase=sal seed=3");
  ASSERT_EQ(request.args.size(), 3u);
  EXPECT_EQ(request.args[0], "alice");
  EXPECT_EQ(request.args[2], "seed=3");

  const serve::Request bare = serve::parse_request("LIST");
  EXPECT_EQ(bare.verb, "LIST");
  EXPECT_TRUE(bare.rest.empty());
  EXPECT_TRUE(bare.args.empty());
}

TEST(ServeProtocol, ResponseLinesStayOneLine) {
  EXPECT_EQ(serve::ok_line("job-000001"), "OK job-000001");
  const std::string err = serve::err_line("bad spec:\nline two\r\n");
  EXPECT_EQ(err.rfind("ERR ", 0), 0u);
  EXPECT_EQ(err.find('\n'), std::string::npos);
  EXPECT_EQ(err.find('\r'), std::string::npos);
}

TEST(ServeProtocol, FormatCampaignResultIsByteStableAcrossRuns) {
  set_log_level(LogLevel::Warn);
  core::SweepSpec sweep;
  sweep.base.testcase = circuits::Testcase::Sal;
  sweep.base.method = core::VerifMethod::C;
  sweep.base.max_iterations = 120;
  sweep.base.seed = 1;

  // Two independent runs of the same fixed-seed sweep differ only in wall
  // time; the canonical text zeroes it, so the bytes must match — the exact
  // comparison the kill-and-restart smoke test performs with diff(1).
  core::Campaign first(sweep);
  core::Campaign second(sweep);
  const std::string a = serve::format_campaign_result(first.run());
  const std::string b = serve::format_campaign_result(second.run());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("campaign-result entries 1"), std::string::npos);
}

// -------------------------------------------------------------- job store --

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(JobStoreTest, RoundTripsJobsResultsAndIdSequence) {
  const std::string spool = fresh_dir("glova_serve_store");
  JobStore store(spool);

  store.save_job({"job-000002", "bob", "testcase=sal seed=2"});
  store.save_job({"job-000010", "alice", "testcase=sal seed=1"});
  const auto jobs = store.load_jobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "job-000002");  // sorted by id = submission order
  EXPECT_EQ(jobs[0].tenant, "bob");
  EXPECT_EQ(jobs[1].id, "job-000010");
  EXPECT_EQ(jobs[1].spec_text, "testcase=sal seed=1");
  EXPECT_EQ(store.max_job_number(), 10u);

  // Results: absent until saved, then state + text round-trip.
  EXPECT_FALSE(store.load_result("job-000002").has_value());
  store.save_result("job-000002", "Done", "campaign-result entries 1\n");
  const auto result = store.load_result("job-000002");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->state, "Done");
  EXPECT_EQ(result->text, "campaign-result entries 1\n");

  // Checkpoint removal tolerates a checkpoint that never existed.
  store.remove_checkpoint("job-000002");
  std::filesystem::remove_all(spool);
}

// ------------------------------------------------------------ live server --

/// Minimal loopback client for the tests: one connection, line at a time.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
    io_ = std::make_unique<LineIo>(fd_);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// One request, first response line back.
  std::string request(const std::string& line) {
    EXPECT_TRUE(io_->write_line(line));
    std::string response;
    EXPECT_TRUE(io_->read_line(response)) << "no response to: " << line;
    return response;
  }

  /// Payload lines up to (excluding) END.
  std::vector<std::string> read_payload() {
    std::vector<std::string> lines;
    std::string line;
    while (io_->read_line(line) && line != serve::kEndLine) lines.push_back(line);
    return lines;
  }

 private:
  int fd_ = -1;
  std::unique_ptr<LineIo> io_;
};

/// The sweep the end-to-end tests submit: small enough to finish in seconds,
/// all three algorithms so resume covers every state codec.
core::SweepSpec serve_sweep() {
  core::SweepSpec sweep;
  sweep.base.testcase = circuits::Testcase::Sal;
  sweep.base.method = core::VerifMethod::C;
  sweep.base.max_iterations = 120;
  sweep.base.seed = 1;
  sweep.algorithms = core::all_algorithms();
  return sweep;
}

/// Poll STATUS until the job reports `state` (word match on the response
/// line) or the deadline passes; returns the last status line either way.
std::string wait_for_state(TestClient& client, const std::string& id, const std::string& state,
                           int timeout_sec = 180) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(timeout_sec);
  std::string response;
  for (;;) {
    response = client.request("STATUS " + id);
    if (response.find(' ' + state + ' ') != std::string::npos) return response;
    if (std::chrono::steady_clock::now() >= deadline) return response;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Poll STATUS until the job is terminal (Done/Failed/Cancelled) or the
/// deadline passes; returns the last status line.
std::string wait_terminal(TestClient& client, const std::string& id, int timeout_sec = 180) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(timeout_sec);
  std::string response;
  for (;;) {
    response = client.request("STATUS " + id);
    for (const char* state : {" Done ", " Failed ", " Cancelled "}) {
      if (response.find(state) != std::string::npos) return response;
    }
    if (std::chrono::steady_clock::now() >= deadline) return response;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Payload of a successful RESULT, rejoined to the canonical text (the
/// server strips trailing newlines for transport; restore exactly one).
std::string result_text(TestClient& client, const std::string& id) {
  const std::string head = client.request("RESULT " + id);
  EXPECT_EQ(head.rfind("OK ", 0), 0u) << head;
  std::string text;
  for (const std::string& line : client.read_payload()) text += line + '\n';
  return text;
}

std::string strip_trailing_newlines(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text.empty() ? text : text + '\n';
}

TEST(Server, SubmitRunsToDoneWithTheCanonicalResult) {
  set_log_level(LogLevel::Warn);
  const std::string spool = fresh_dir("glova_serve_e2e");
  serve::ServerConfig config;
  config.spool_dir = spool;
  config.workers = 2;
  serve::Server server(std::move(config));
  server.start();
  ASSERT_NE(server.port(), 0);

  core::SweepSpec sweep = serve_sweep();
  sweep.algorithms = {core::Algorithm::Glova};

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string submitted = client.request("SUBMIT alice " + sweep.to_string());
  ASSERT_EQ(submitted.rfind("OK ", 0), 0u) << submitted;
  const std::string id = submitted.substr(3);
  EXPECT_EQ(id, "job-000001");

  const std::string status = wait_for_state(client, id, "Done");
  ASSERT_NE(status.find(" Done "), std::string::npos) << status;
  EXPECT_NE(status.find("tenant=alice"), std::string::npos);

  // The served result is the canonical byte form of the same sweep run
  // directly — the format_campaign_result contract.
  core::Campaign direct(sweep);
  EXPECT_EQ(strip_trailing_newlines(result_text(client, id)),
            strip_trailing_newlines(serve::format_campaign_result(direct.run())));

  // LIST reflects the terminal job.
  const std::string count = client.request("LIST");
  EXPECT_EQ(count, "OK 1");
  const auto rows = client.read_payload();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].rfind("JOB job-000001 alice Done", 0), 0u) << rows[0];

  server.stop(true);
  std::filesystem::remove_all(spool);
}

// Two tenants whose specs name different numerics share a two-worker daemon
// that steps one quantum at a time, so their jobs interleave on both worker
// threads.  Each RESULT is still the canonical text of its sweep run alone:
// alice's job runs with warm start off, so it neither reads nor stores the
// worker threads' DC caches and cannot seed bob's solves, and neither job
// counts the other's SPICE activity.
TEST(Server, TenantsWithDifferentNumericsGetTheirSoloResults) {
  set_log_level(LogLevel::Warn);
  const std::string spool = fresh_dir("glova_serve_numerics");
  serve::ServerConfig config;
  config.spool_dir = spool;
  config.workers = 2;
  config.steps_per_quantum = 1;
  serve::Server server(std::move(config));
  server.start();
  ASSERT_NE(server.port(), 0);

  const std::string bob_spec =
      "testcase=SAL backend=spice method=C seed=1 max_iterations=120 parallelism=1";
  const std::string alice_spec = bob_spec + " dc_warm_start=0";
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string alice = client.request("SUBMIT alice " + alice_spec);
  const std::string bob = client.request("SUBMIT bob " + bob_spec);
  ASSERT_EQ(alice.rfind("OK ", 0), 0u) << alice;
  ASSERT_EQ(bob.rfind("OK ", 0), 0u) << bob;

  std::vector<std::string> solo_results;
  for (const auto& [id, spec] : {std::pair{alice.substr(3), alice_spec},
                                 std::pair{bob.substr(3), bob_spec}}) {
    const std::string status = wait_terminal(client, id);
    ASSERT_NE(status.find(" Done "), std::string::npos) << status;
    core::Campaign alone(core::SweepSpec::from_string(spec));
    solo_results.push_back(strip_trailing_newlines(serve::format_campaign_result(alone.run())));
    EXPECT_EQ(strip_trailing_newlines(result_text(client, id)), solo_results.back()) << spec;
  }
  // Beyond the spec lines the two solo results differ (alice's warm-start
  // counters stay 0), so a leak between the jobs would show.
  const auto without_specs = [](const std::string& text) {
    std::istringstream in(text);
    std::string out;
    for (std::string line; std::getline(in, line);) {
      if (line.find("testcase=") == std::string::npos) out += line + '\n';
    }
    return out;
  };
  EXPECT_NE(without_specs(solo_results[0]), without_specs(solo_results[1]));

  server.stop(true);
  std::filesystem::remove_all(spool);
}

// A spool record written before the adaptive/EKV defaults carries
// `adaptive_timestep=0 mos_model=level1`.  After a restart the daemon fails
// that job with the docs pointer instead of running it on other numerics,
// and keeps serving new jobs.
TEST(Server, SpoolRecordWithRetiredNumericsFailsWithADocsPointerAfterRestart) {
  set_log_level(LogLevel::Warn);
  const std::string spool = fresh_dir("glova_serve_retired_numerics");
  JobStore(spool).save_job(
      {"job-000001", "alice",
       "testcase=SAL backend=spice algorithm=glova method=C corner_filter=all seed=1 "
       "max_iterations=120 n_opt_samples=3 use_ensemble_critic=1 use_mu_sigma=1 "
       "use_reordering=1 max_simulations=0 budget_iterations=0 max_wall_seconds=0 "
       "cost_per_simulation=1 cost_per_rl_iteration=2 parallelism=1 min_parallel_batch=8 "
       "cache_capacity=4096 cache_quantum=1.0000000000000001e-15 dc_warm_start=1 "
       "adaptive_timestep=0 recovery=0 mos_model=level1 max_eval_retries=0 "
       "eval_deadline_steps=0 degrade_to_behavioral=0 cache_path= progress_log=0"});

  serve::ServerConfig config;
  config.spool_dir = spool;
  config.workers = 1;
  serve::Server server(std::move(config));
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string status = wait_terminal(client, "job-000001");
  ASSERT_NE(status.find(" Failed "), std::string::npos) << status;
  const std::string failure = result_text(client, "job-000001");
  EXPECT_NE(failure.find("docs/run_spec.md#retired-keys"), std::string::npos) << failure;

  core::SweepSpec tiny = serve_sweep();
  tiny.algorithms = {core::Algorithm::Glova};
  const std::string next = client.request("SUBMIT alice " + tiny.to_string());
  ASSERT_EQ(next.rfind("OK ", 0), 0u) << next;
  EXPECT_EQ(next.substr(3), "job-000002");
  const std::string done = wait_terminal(client, next.substr(3));
  EXPECT_NE(done.find(" Done "), std::string::npos) << done;

  server.stop(true);
  std::filesystem::remove_all(spool);
}

TEST(Server, MalformedRequestsGetErrWithoutDroppingTheConnection) {
  set_log_level(LogLevel::Warn);
  serve::ServerConfig config;
  config.spool_dir = fresh_dir("glova_serve_malformed");
  serve::Server server(std::move(config));
  server.start();

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.request("FROBNICATE now").rfind("ERR bad request", 0), 0u);
  EXPECT_EQ(client.request("SUBMIT").rfind("ERR SUBMIT needs", 0), 0u);
  EXPECT_EQ(client.request("SUBMIT alice no-such-key=1").rfind("ERR bad spec", 0), 0u);
  EXPECT_EQ(client.request("STATUS job-999999").rfind("ERR unknown job", 0), 0u);
  EXPECT_EQ(client.request("RESULT job-999999").rfind("ERR unknown job", 0), 0u);
  EXPECT_EQ(client.request("CANCEL job-999999").rfind("ERR unknown job", 0), 0u);
  EXPECT_EQ(client.request("WATCH job-999999").rfind("ERR unknown job", 0), 0u);
  EXPECT_EQ(client.request("STATUS one two").rfind("ERR bad request", 0), 0u);

  // Eight rejected requests later, the connection still serves good ones.
  EXPECT_EQ(client.request("LIST"), "OK 0");
  EXPECT_TRUE(client.read_payload().empty());

  server.stop(true);
}

TEST(Server, BoundedAdmissionRejectsAndRecoversAfterCancel) {
  set_log_level(LogLevel::Warn);
  serve::ServerConfig config;
  config.spool_dir = fresh_dir("glova_serve_bounded");
  config.workers = 1;
  config.max_jobs = 1;
  config.steps_per_quantum = 1;
  serve::Server server(std::move(config));
  server.start();

  // A long-running sweep occupies the single admission slot.
  core::SweepSpec sweep = serve_sweep();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string first = client.request("SUBMIT alice " + sweep.to_string());
  ASSERT_EQ(first.rfind("OK ", 0), 0u) << first;
  const std::string id = first.substr(3);

  // The bound holds regardless of tenant: backpressure at the door.
  const std::string rejected = client.request("SUBMIT bob " + sweep.to_string());
  EXPECT_EQ(rejected.rfind("ERR queue full", 0), 0u) << rejected;

  // Cancelling the live job frees the slot (possibly a quantum later).
  EXPECT_EQ(client.request("CANCEL " + id).rfind("OK ", 0), 0u);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string retried;
  for (;;) {
    retried = client.request("SUBMIT bob " + sweep.to_string());
    if (retried.rfind("OK ", 0) == 0 || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(retried.rfind("OK ", 0), 0u) << retried;

  // The cancelled job reaches a terminal state; unless it won the race and
  // finished on its own, the payload of a cancelled job is empty.
  const std::string final_status = wait_terminal(client, id);
  if (final_status.find(" Cancelled ") != std::string::npos) {
    EXPECT_EQ(result_text(client, id), "");
  } else {
    EXPECT_NE(final_status.find(" Done "), std::string::npos) << final_status;
  }

  server.stop(true);
}

TEST(Server, ConcurrentClientsGetDistinctJobs) {
  set_log_level(LogLevel::Warn);
  serve::ServerConfig config;
  config.spool_dir = fresh_dir("glova_serve_concurrent");
  config.workers = 2;
  serve::Server server(std::move(config));
  server.start();

  core::SweepSpec sweep = serve_sweep();
  sweep.algorithms = {core::Algorithm::Glova};
  const std::string spec_text = sweep.to_string();

  constexpr std::size_t kClients = 4;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      TestClient client(server.port());
      if (!client.connected()) return;
      responses[i] = client.request("SUBMIT tenant" + std::to_string(i % 2) + ' ' + spec_text);
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<std::string> ids;
  for (const std::string& response : responses) {
    ASSERT_EQ(response.rfind("OK job-", 0), 0u) << response;
    ids.insert(response.substr(3));
  }
  EXPECT_EQ(ids.size(), kClients) << "every submission must get a unique id";

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.request("LIST"), "OK " + std::to_string(kClients));
  EXPECT_EQ(client.read_payload().size(), kClients);

  server.stop(true);
}

TEST(Server, WatchStreamsEventsUntilTheJobEnds) {
  set_log_level(LogLevel::Warn);
  serve::ServerConfig config;
  config.spool_dir = fresh_dir("glova_serve_watch");
  config.workers = 1;
  // A long first quantum on the blocker job gives the WATCH below seconds of
  // margin to register before the watched job takes its first step.
  config.steps_per_quantum = 64;
  serve::Server server(std::move(config));
  server.start();

  // Three seeds x three algorithms: the first quantum starts nine sessions,
  // each with its own TuRBO init and agent warm-up, so the margin does not
  // shrink to a fraction of a second when the optimizer gets faster.
  core::SweepSpec blocker_sweep = serve_sweep();
  blocker_sweep.seeds = {1, 2, 3};
  core::SweepSpec watched_sweep = serve_sweep();
  watched_sweep.algorithms = {core::Algorithm::Glova};

  TestClient control(server.port());
  ASSERT_TRUE(control.connected());
  // The single worker chews on the blocker first, so the WATCH below is
  // registered before the watched job takes its first step.
  const std::string blocker = control.request("SUBMIT alice " + blocker_sweep.to_string());
  ASSERT_EQ(blocker.rfind("OK ", 0), 0u);
  const std::string watched = control.request("SUBMIT bob " + watched_sweep.to_string());
  ASSERT_EQ(watched.rfind("OK ", 0), 0u);
  const std::string id = watched.substr(3);

  TestClient watcher(server.port());
  ASSERT_TRUE(watcher.connected());
  EXPECT_EQ(watcher.request("WATCH " + id), "OK watching " + id);

  // A watching connection accepts no further requests...
  // (checked indirectly: the stream below arrives in order and ends in END).
  const std::vector<std::string> events = watcher.read_payload();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().rfind("EVENT " + id + " session-start 0", 0), 0u) << events.front();
  std::size_t iterations = 0;
  for (const std::string& event : events) {
    iterations += event.find(" iteration ") != std::string::npos ? 1 : 0;
  }
  EXPECT_GT(iterations, 0u);
  EXPECT_EQ(events.back(), "EVENT " + id + " done Done");

  // Watching an already-terminal job returns its final event immediately.
  TestClient late(server.port());
  ASSERT_TRUE(late.connected());
  EXPECT_EQ(late.request("WATCH " + id), "OK watching " + id);
  const auto replayed = late.read_payload();
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], "EVENT " + id + " done Done");

  server.stop(true);
}

TEST(Server, ShutdownVerbRequestsTermination) {
  set_log_level(LogLevel::Warn);
  serve::ServerConfig config;
  config.spool_dir = fresh_dir("glova_serve_shutdown");
  serve::Server server(std::move(config));
  server.start();
  EXPECT_FALSE(server.shutdown_requested());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.request("SHUTDOWN"), "OK shutting-down");
  EXPECT_TRUE(server.shutdown_requested());
  server.stop(true);
}

TEST(Server, KillAndRestartResumesEveryInFlightCampaignBitIdentically) {
  set_log_level(LogLevel::Warn);
  const std::string spool = fresh_dir("glova_serve_restart");
  const core::SweepSpec sweep = serve_sweep();

  auto make_config = [&spool] {
    serve::ServerConfig config;
    config.spool_dir = spool;
    config.workers = 1;
    config.steps_per_quantum = 1;
    config.checkpoint_every_steps = 1;  // a checkpoint after every step
    return config;
  };

  std::string id;
  {
    serve::Server server(make_config());
    server.start();
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const std::string submitted = client.request("SUBMIT alice " + sweep.to_string());
    ASSERT_EQ(submitted.rfind("OK ", 0), 0u) << submitted;
    id = submitted.substr(3);

    // Let it make real progress (several checkpoints deep) before the crash.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (;;) {
      const std::string status = client.request("STATUS " + id);
      if (status.find(" Done ") != std::string::npos) {
        GTEST_SKIP() << "job finished before the simulated crash: " << status;
      }
      const std::size_t at = status.find("steps=");
      if (at != std::string::npos && std::atoi(status.c_str() + at + 6) >= 5) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << status;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // Crash simulation: no final checkpoint — only the periodic spool
    // checkpoints survive, exactly what a SIGKILL leaves behind.
    server.stop(/*checkpoint=*/false);
  }
  ASSERT_TRUE(std::filesystem::exists(spool + "/checkpoints/" + id + ".ckpt"));

  // Restart on the same spool: the job is recovered, resumed from its last
  // checkpoint, and driven to Done.
  serve::Server restarted(make_config());
  restarted.start();
  TestClient client(restarted.port());
  ASSERT_TRUE(client.connected());
  const std::string status = wait_for_state(client, id, "Done");
  ASSERT_NE(status.find(" Done "), std::string::npos) << status;

  // The acceptance pin: the resumed result is byte-identical to the same
  // sweep run start-to-finish in one piece.
  core::Campaign direct(sweep);
  EXPECT_EQ(strip_trailing_newlines(result_text(client, id)),
            strip_trailing_newlines(serve::format_campaign_result(direct.run())));

  // The id sequence continues across the restart instead of reusing ids.
  core::SweepSpec tiny = serve_sweep();
  tiny.algorithms = {core::Algorithm::Glova};
  const std::string next = client.request("SUBMIT alice " + tiny.to_string());
  ASSERT_EQ(next.rfind("OK ", 0), 0u) << next;
  EXPECT_EQ(next.substr(3), "job-000002");

  restarted.stop(true);
  std::filesystem::remove_all(spool);
}

}  // namespace
}  // namespace glova
