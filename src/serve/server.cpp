#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/log.hpp"
#include "common/state_io.hpp"
#include "common/text.hpp"
#include "serve/protocol.hpp"

namespace glova::serve {

namespace {

JobState job_state_from_string(const std::string& name) {
  if (name == "Running") return JobState::Running;
  if (name == "Done") return JobState::Done;
  if (name == "Failed") return JobState::Failed;
  if (name == "Cancelled") return JobState::Cancelled;
  return JobState::Queued;
}

[[nodiscard]] bool terminal(JobState state) {
  return state == JobState::Done || state == JobState::Failed || state == JobState::Cancelled;
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::Queued: return "Queued";
    case JobState::Running: return "Running";
    case JobState::Done: return "Done";
    case JobState::Failed: return "Failed";
    case JobState::Cancelled: return "Cancelled";
  }
  return "?";
}

struct Server::Job {
  JobRecord record;
  JobState state = JobState::Queued;
  /// Campaign steps driven so far; atomic so STATUS reads race-free against
  /// the driving worker.
  std::atomic<std::size_t> steps{0};
  std::size_t steps_since_checkpoint = 0;  ///< worker-only
  std::atomic<bool> cancel_requested{false};
  std::unique_ptr<core::Campaign> campaign;  ///< built lazily by the worker
  std::string result_text;                   ///< terminal jobs
  std::vector<int> watchers;                 ///< WATCH subscriber sockets
};

/// CampaignObserver forwarding per-iteration events to WATCH subscribers.
/// Callbacks run on the worker thread driving the campaign (never while it
/// holds the server mutex), so locking here is deadlock-free.
class Server::WatchForwarder final : public core::CampaignObserver {
 public:
  WatchForwarder(Server* server, std::string id) : server_(server), id_(std::move(id)) {}

  void on_session_start(std::size_t index, const core::RunSpec& spec) override {
    send("EVENT " + id_ + " session-start " + std::to_string(index) + ' ' + spec.to_string());
  }
  void on_iteration(std::size_t index, const core::RunSpec&, const core::IterationTrace& trace,
                    const core::EngineStats&) override {
    send("EVENT " + id_ + " iteration " + std::to_string(index) + ' ' +
         std::to_string(trace.iteration) + " reward " +
         format_double_roundtrip(trace.reward_worst) + " sims " +
         std::to_string(trace.sims_total));
  }
  void on_session_finish(std::size_t index, const core::RunSpec&,
                         const core::GlovaResult& result) override {
    send("EVENT " + id_ + " session-finish " + std::to_string(index) + ' ' +
         state::one_line(result.termination));
  }
  void on_session_error(std::size_t index, const core::RunSpec&,
                        const std::string& error) override {
    send("EVENT " + id_ + " session-error " + std::to_string(index) + ' ' +
         state::one_line(error));
  }

 private:
  void send(const std::string& line) {
    std::lock_guard<std::mutex> lock(server_->mutex_);
    const auto it = server_->jobs_.find(id_);
    if (it != server_->jobs_.end()) server_->send_event_locked(*it->second, line);
  }

  Server* server_;
  std::string id_;
};

Server::Server(ServerConfig config)
    : config_(std::move(config)), store_(config_.spool_dir), scheduler_(config_.max_jobs) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.steps_per_quantum == 0) config_.steps_per_quantum = 1;
  if (config_.checkpoint_every_steps == 0) config_.checkpoint_every_steps = 1;
}

Server::~Server() { stop(true); }

void Server::recover_spool() {
  for (JobRecord& record : store_.load_jobs()) {
    if (jobs_.count(record.id) != 0) continue;  // stop()+start() on one Server
    auto job = std::make_unique<Job>();
    if (const auto result = store_.load_result(record.id)) {
      job->state = job_state_from_string(result->state);
      job->result_text = result->text;
    } else {
      job->state = JobState::Queued;
      scheduler_.adopt(record.tenant, record.id);
    }
    job->record = std::move(record);
    jobs_[job->record.id] = std::move(job);
  }
  next_job_number_ = store_.max_job_number() + 1;
}

void Server::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) throw std::logic_error("glova-serve: start() called twice");

  if (!config_.cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.cache_dir, ec);
    if (ec) {
      throw std::runtime_error("glova-serve: cannot create cache dir '" + config_.cache_dir +
                               "': " + ec.message());
    }
  }

  recover_spool();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("glova-serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("glova-serve: cannot bind 127.0.0.1:" +
                             std::to_string(config_.port) + ": " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("glova-serve: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  started_ = true;
  stopping_ = false;
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  const std::size_t queued = scheduler_.queued();
  if (queued > 0) {
    log_info("glova-serve: recovered ", queued, " in-flight job(s) from ", config_.spool_dir);
    cv_work_.notify_all();
  }
  log_info("glova-serve: listening on 127.0.0.1:", port_);
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_shutdown_.wait(lock, [this] { return shutdown_requested_ || stopping_; });
}

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_requested_;
}

void Server::stop(bool checkpoint) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
    shutdown_requested_ = true;
    // Unblock every blocked accept()/recv(); the threads then exit on their
    // own and are joined below.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  cv_work_.notify_all();
  cv_shutdown_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  for (std::thread& connection : connections_) {
    if (connection.joinable()) connection.join();
  }
  workers_.clear();
  connections_.clear();

  std::lock_guard<std::mutex> lock(mutex_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (checkpoint) {
    // Graceful shutdown: persist every in-flight campaign so the next start
    // resumes without losing a single completed step.  stop(false) leaves
    // only the periodic checkpoints — the exact on-disk state of a crash.
    for (auto& [id, job] : jobs_) {
      if (terminal(job->state) || !job->campaign) continue;
      try {
        job->campaign->save_file(store_.checkpoint_path(id));
      } catch (const std::exception& e) {
        log_warn("glova-serve: final checkpoint of ", id, " failed: ", e.what());
      }
    }
  }
  started_ = false;
}

// ---------------------------------------------------------------- sockets --

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener gone
    }
    connection_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void Server::connection_loop(int fd) {
  LineIo io(fd);
  std::string line;
  bool watching = false;
  while (io.read_line(line)) {
    if (line.empty()) continue;
    const Request request = parse_request(line);
    if (watching) {
      io.write_line(err_line("connection is in watch mode"));
      continue;
    }
    if (request.verb == "SUBMIT") {
      handle_submit(fd, request.rest);
    } else if (request.verb == "STATUS" && request.args.size() == 1) {
      handle_status(fd, request.args[0]);
    } else if (request.verb == "RESULT" && request.args.size() == 1) {
      handle_result(fd, request.args[0]);
    } else if (request.verb == "WATCH" && request.args.size() == 1) {
      handle_watch(fd, request.args[0], watching);
    } else if (request.verb == "CANCEL" && request.args.size() == 1) {
      handle_cancel(fd, request.args[0]);
    } else if (request.verb == "LIST" && request.args.empty()) {
      handle_list(fd);
    } else if (request.verb == "SHUTDOWN" && request.args.empty()) {
      {
        // Record the request before acknowledging it: a client that has
        // read the reply must find shutdown_requested() true.
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_requested_ = true;
        cv_shutdown_.notify_all();
      }
      io.write_line(ok_line("shutting-down"));
    } else {
      io.write_line(err_line("bad request: " + line +
                             " (expected SUBMIT/STATUS/RESULT/WATCH/CANCEL/LIST/SHUTDOWN)"));
    }
  }
  // Connection gone: drop any watch registration, then close.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, job] : jobs_) {
    auto& watchers = job->watchers;
    watchers.erase(std::remove(watchers.begin(), watchers.end(), fd), watchers.end());
  }
  connection_fds_.erase(std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
                        connection_fds_.end());
  ::close(fd);
}

// --------------------------------------------------------------- handlers --

void Server::handle_submit(int fd, const std::string& rest) {
  const std::vector<std::string> tokens = split_tokens(rest);
  if (tokens.empty()) {
    LineIo::write_line(fd, err_line("SUBMIT needs: SUBMIT <tenant> <sweep-spec>"));
    return;
  }
  const std::string& tenant = tokens[0];
  const std::size_t spec_at = rest.find(tenant) + tenant.size();
  const std::string spec_text = rest.substr(std::min(spec_at, rest.size()));

  core::SweepSpec sweep;
  try {
    sweep = core::SweepSpec::from_string(spec_text);
    for (const core::RunSpec& spec : sweep.expand()) spec.validate();
  } catch (const std::exception& e) {
    LineIo::write_line(fd, err_line(std::string("bad spec: ") + e.what()));
    return;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  char id_buf[32];
  std::snprintf(id_buf, sizeof(id_buf), "job-%06llu",
                static_cast<unsigned long long>(next_job_number_));
  const std::string id = id_buf;
  if (const auto rejection = scheduler_.admit(tenant, id)) {
    LineIo::write_line(fd, err_line(*rejection));
    return;
  }
  ++next_job_number_;
  auto job = std::make_unique<Job>();
  job->record = JobRecord{id, tenant, sweep.to_string()};
  try {
    store_.save_job(job->record);
  } catch (const std::exception& e) {
    scheduler_.release();
    LineIo::write_line(fd, err_line(std::string("spool write failed: ") + e.what()));
    return;
  }
  jobs_[id] = std::move(job);
  cv_work_.notify_one();
  LineIo::write_line(fd, ok_line(id));
}

void Server::handle_status(int fd, const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    LineIo::write_line(fd, err_line("unknown job " + id));
    return;
  }
  const Job& job = *it->second;
  LineIo::write_line(fd, ok_line(id + ' ' + to_string(job.state) +
                                 " steps=" + std::to_string(job.steps.load()) +
                                 " tenant=" + job.record.tenant));
}

void Server::handle_result(int fd, const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    LineIo::write_line(fd, err_line("unknown job " + id));
    return;
  }
  const Job& job = *it->second;
  if (!terminal(job.state)) {
    LineIo::write_line(fd, err_line("job " + id + " not finished (state " +
                                    to_string(job.state) + ")"));
    return;
  }
  LineIo::write_line(fd, ok_line(id + ' ' + to_string(job.state)));
  std::string text = job.result_text;
  while (!text.empty() && text.back() == '\n') text.pop_back();
  if (!text.empty()) LineIo::write_line(fd, text);
  LineIo::write_line(fd, kEndLine);
}

void Server::handle_cancel(int fd, const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    LineIo::write_line(fd, err_line("unknown job " + id));
    return;
  }
  Job& job = *it->second;
  if (terminal(job.state)) {
    LineIo::write_line(fd, err_line("job " + id + " already terminal (state " +
                                    to_string(job.state) + ")"));
    return;
  }
  job.cancel_requested = true;
  if (job.state == JobState::Queued && scheduler_.remove(id)) {
    retire_job(lock, job, JobState::Cancelled, "");
    LineIo::write_line(fd, ok_line(id + " Cancelled"));
    return;
  }
  // Mid-quantum: the worker observes the flag at the next quantum boundary.
  LineIo::write_line(fd, ok_line(id + " cancelling"));
}

void Server::handle_list(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  LineIo::write_line(fd, ok_line(std::to_string(jobs_.size())));
  for (const auto& [id, job] : jobs_) {
    LineIo::write_line(fd, "JOB " + id + ' ' + job->record.tenant + ' ' +
                               to_string(job->state) +
                               " steps=" + std::to_string(job->steps.load()));
  }
  LineIo::write_line(fd, kEndLine);
}

void Server::handle_watch(int fd, const std::string& id, bool& watching) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    LineIo::write_line(fd, err_line("unknown job " + id));
    return;
  }
  Job& job = *it->second;
  LineIo::write_line(fd, ok_line("watching " + id));
  if (terminal(job.state)) {
    LineIo::write_line(fd, "EVENT " + id + " done " + to_string(job.state));
    LineIo::write_line(fd, kEndLine);
    return;
  }
  job.watchers.push_back(fd);
  watching = true;
}

// ---------------------------------------------------------------- workers --

void Server::worker_loop() {
  for (;;) {
    std::string id;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [this] { return stopping_ || scheduler_.queued() > 0; });
      if (stopping_) return;
      const auto next = scheduler_.next();
      if (!next) continue;
      id = *next;
    }
    run_quantum(id);
  }
}

void Server::run_quantum(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  Job& job = *it->second;
  if (terminal(job.state)) return;
  if (job.cancel_requested) {
    retire_job(lock, job, JobState::Cancelled, "");
    return;
  }
  job.state = JobState::Running;
  lock.unlock();

  // Campaign construction and stepping run without the lock: this is the
  // expensive part, and observer callbacks re-enter the server to reach
  // WATCH subscribers.
  std::string error;
  if (!job.campaign) {
    try {
      const std::string checkpoint = store_.checkpoint_path(id);
      if (std::filesystem::exists(checkpoint)) {
        job.campaign = std::make_unique<core::Campaign>(
            core::Campaign::load_file(checkpoint, config_.make_testbench));
        log_info("glova-serve: ", id, " resumed from checkpoint");
      } else {
        core::CampaignConfig campaign_config;
        campaign_config.make_testbench = config_.make_testbench;
        campaign_config.cache_dir = config_.cache_dir;
        job.campaign = std::make_unique<core::Campaign>(
            core::SweepSpec::from_string(job.record.spec_text), campaign_config);
      }
      job.campaign->add_observer(std::make_shared<WatchForwarder>(this, id));
    } catch (const std::exception& e) {
      error = e.what();
    }
  }

  bool done = false;
  if (error.empty()) {
    try {
      for (std::size_t i = 0; i < config_.steps_per_quantum; ++i) {
        if (!job.campaign->step()) {
          done = true;
          break;
        }
        ++job.steps;
        if (++job.steps_since_checkpoint >= config_.checkpoint_every_steps) {
          job.campaign->save_file(store_.checkpoint_path(id));
          job.steps_since_checkpoint = 0;
        }
        if (job.cancel_requested) break;
      }
    } catch (const std::exception& e) {
      // Campaign-level failures (session errors are isolated inside the
      // campaign; reaching here means the campaign itself is broken).
      error = e.what();
    }
  }

  lock.lock();
  if (!error.empty()) {
    retire_job(lock, job, JobState::Failed, "error " + state::one_line(error) + '\n');
  } else if (done) {
    retire_job(lock, job, JobState::Done, format_campaign_result(job.campaign->result()));
  } else if (job.cancel_requested) {
    retire_job(lock, job, JobState::Cancelled, "");
  } else if (stopping_) {
    job.state = JobState::Queued;  // stop(true) checkpoints it below
  } else {
    job.state = JobState::Queued;
    scheduler_.requeue(job.record.tenant, id);
    cv_work_.notify_one();
  }
}

void Server::retire_job(std::unique_lock<std::mutex>& /*lock*/, Job& job, JobState state,
                        std::string result_text) {
  job.state = state;
  job.result_text = std::move(result_text);
  try {
    store_.save_result(job.record.id, to_string(state), job.result_text);
    store_.remove_checkpoint(job.record.id);
  } catch (const std::exception& e) {
    log_warn("glova-serve: persisting result of ", job.record.id, " failed: ", e.what());
  }
  scheduler_.release();
  send_event_locked(job, "EVENT " + job.record.id + " done " + to_string(state));
  for (const int fd : job.watchers) LineIo::write_line(fd, kEndLine);
  job.watchers.clear();
  job.campaign.reset();
}

void Server::send_event_locked(Job& job, const std::string& line) {
  for (const int fd : job.watchers) LineIo::write_line(fd, line);
}

}  // namespace glova::serve
