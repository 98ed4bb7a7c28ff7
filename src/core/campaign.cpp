#include "core/campaign.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/fsio.hpp"
#include "common/log.hpp"
#include "common/state_io.hpp"
#include "common/text.hpp"
#include "core/persistent_cache.hpp"

namespace glova::core {

// ---------------------------------------------------------------------------
// SweepSpec

std::vector<RunSpec> SweepSpec::expand() const {
  const auto tcs = testcases.empty() ? std::vector<circuits::Testcase>{base.testcase} : testcases;
  const auto algos = algorithms.empty() ? std::vector<Algorithm>{base.algorithm} : algorithms;
  const auto verifs = methods.empty() ? std::vector<VerifMethod>{base.method} : methods;
  const auto sds = seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;

  std::vector<RunSpec> out;
  out.reserve(tcs.size() * algos.size() * verifs.size() * sds.size());
  for (const auto tc : tcs) {
    for (const auto algo : algos) {
      for (const auto verif : verifs) {
        for (const auto seed : sds) {
          RunSpec spec = base;
          spec.testcase = tc;
          spec.algorithm = algo;
          spec.method = verif;
          spec.seed = seed;
          out.push_back(std::move(spec));
        }
      }
    }
  }
  return out;
}

namespace {

/// "a,b,c" for a sweep axis vector; `name(v)` renders one element.
template <typename T, typename NameFn>
std::string join_axis(const std::vector<T>& values, NameFn name) {
  std::string out;
  for (const T& v : values) {
    if (!out.empty()) out += ',';
    out += name(v);
  }
  return out;
}

/// Split "a,b,c" and parse each element via `parse` (returns std::optional).
template <typename T, typename ParseFn>
std::vector<T> split_axis(std::string_view text, std::string_view axis, ParseFn parse) {
  std::vector<T> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view item =
        text.substr(pos, comma == std::string_view::npos ? std::string_view::npos : comma - pos);
    const auto v = parse(item);
    if (!v) {
      throw std::invalid_argument("SweepSpec: bad " + std::string(axis) + " element '" +
                                  std::string(item) + "'");
    }
    out.push_back(*v);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

std::string SweepSpec::to_string() const {
  std::string out = base.to_string();
  const auto axis = [&out](std::string_view key, const std::string& joined) {
    if (joined.empty()) return;
    out += ' ';
    out += key;
    out += '=';
    out += joined;
  };
  axis("sweep.testcases",
       join_axis(testcases, [](circuits::Testcase t) { return circuits::to_string(t); }));
  axis("sweep.algorithms", join_axis(algorithms, [](Algorithm a) { return core::to_string(a); }));
  axis("sweep.methods", join_axis(methods, [](VerifMethod m) { return core::to_string(m); }));
  axis("sweep.seeds",
       join_axis(seeds, [](std::uint64_t s) { return std::to_string(s); }));
  return out;
}

SweepSpec SweepSpec::from_string(std::string_view text) {
  // Partition "sweep.*" tokens from RunSpec tokens, then delegate the rest.
  SweepSpec sweep;
  std::string base_text;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
    if (pos >= text.size()) break;
    std::size_t end = pos;
    while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end]))) ++end;
    const std::string_view token = text.substr(pos, end - pos);
    pos = end;

    if (token.substr(0, 6) != "sweep.") {
      if (!base_text.empty()) base_text += ' ';
      base_text += token;
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("SweepSpec: expected key=value, got '" + std::string(token) +
                                  "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "sweep.testcases") {
      sweep.testcases =
          split_axis<circuits::Testcase>(value, key, circuits::testcase_from_string);
    } else if (key == "sweep.algorithms") {
      sweep.algorithms = split_axis<Algorithm>(value, key, algorithm_from_string);
    } else if (key == "sweep.methods") {
      sweep.methods = split_axis<VerifMethod>(value, key, verif_method_from_string);
    } else if (key == "sweep.seeds") {
      sweep.seeds = split_axis<std::uint64_t>(
          value, key, [](std::string_view item) { return parse_unsigned(item); });
    } else {
      throw std::invalid_argument("SweepSpec: unknown key '" + std::string(key) + "'");
    }
  }
  sweep.base = RunSpec::from_string(base_text);
  return sweep;
}

// ---------------------------------------------------------------------------
// Result table

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::Pending: return "pending";
    case SessionState::Running: return "running";
    case SessionState::Finished: return "finished";
    case SessionState::Failed: return "failed";
  }
  return "?";
}

namespace {

std::optional<SessionState> session_state_from_string(std::string_view name) {
  for (const SessionState s : {SessionState::Pending, SessionState::Running,
                               SessionState::Finished, SessionState::Failed}) {
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

}  // namespace

const CampaignEntry* CampaignResult::find(const RunSpec& spec) const {
  for (const CampaignEntry& entry : entries) {
    if (entry.spec == spec) return &entry;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Campaign internals

/// One scheduled session: the spec, the live optimizer (null once terminal),
/// and the bookkeeping that becomes a CampaignEntry.
struct Campaign::Session {
  RunSpec spec;
  std::unique_ptr<Optimizer> optimizer;
  SessionState state = SessionState::Pending;
  std::size_t steps = 0;
  std::size_t retries = 0;  ///< throw-and-replay recoveries so far
  GlovaResult result;  ///< copied from the optimizer when it terminates
  std::string error;

  [[nodiscard]] bool terminal() const {
    return state == SessionState::Finished || state == SessionState::Failed;
  }
};

/// Observer fan-out shared between the campaign and its per-session
/// forwarders.  shared_ptr-owned so forwarders survive Campaign moves.
struct Campaign::Hub {
  std::vector<std::shared_ptr<CampaignObserver>> observers;
};

/// RunObserver attached to each session that relays per-iteration events to
/// every campaign observer, tagged with the session's index and spec.
class Campaign::IterationForwarder final : public RunObserver {
 public:
  IterationForwarder(std::shared_ptr<Hub> hub, std::size_t index, RunSpec spec)
      : hub_(std::move(hub)), index_(index), spec_(std::move(spec)) {}

  void on_iteration(Optimizer&, const IterationTrace& trace, const EngineStats& stats) override {
    for (const auto& obs : hub_->observers) obs->on_iteration(index_, spec_, trace, stats);
  }

 private:
  std::shared_ptr<Hub> hub_;
  std::size_t index_;
  RunSpec spec_;
};

Campaign::Campaign() : hub_(std::make_shared<Hub>()) {}

Campaign::Campaign(std::vector<RunSpec> specs, CampaignConfig config) : Campaign() {
  config_ = std::move(config);
  sessions_.reserve(specs.size());
  for (RunSpec& spec : specs) {
    Session session;
    session.spec = std::move(spec);
    session.optimizer = build_optimizer(session.spec);
    sessions_.push_back(std::move(session));
  }
  for (std::size_t i = 0; i < sessions_.size(); ++i) attach_forwarder(i);
}

Campaign::Campaign(const SweepSpec& sweep, CampaignConfig config)
    : Campaign(sweep.expand(), std::move(config)) {}

Campaign::Campaign(Campaign&&) noexcept = default;
Campaign& Campaign::operator=(Campaign&&) noexcept = default;
Campaign::~Campaign() = default;

circuits::TestbenchPtr Campaign::testbench_for(const RunSpec& spec) {
  if (config_.make_testbench) return config_.make_testbench(spec);
  // Registry default: validate the full spec (including availability), then
  // share one testbench per (testcase, backend) — testbenches are
  // stateless-const, so sharing cannot change any session's results.
  spec.validate();
  const std::pair<int, int> key{static_cast<int>(spec.testcase), static_cast<int>(spec.backend)};
  for (const auto& [k, tb] : shared_benches_) {
    if (k == key) return tb;
  }
  auto tb = circuits::make_testbench(spec.testcase, spec.backend);
  shared_benches_.emplace_back(key, tb);
  return tb;
}

std::unique_ptr<Optimizer> Campaign::build_optimizer(const RunSpec& spec) {
  circuits::TestbenchPtr tb = testbench_for(spec);
  if (!config_.cache_dir.empty() && spec.engine.cache_path.empty()) {
    // Shard the directory per (testcase, backend, numerics-config) tag so
    // sessions with different engine settings never collide on a file — a
    // foreign-tag cache is a hard load error by design.  The stored session
    // spec stays untouched: the injected path is a campaign-level concern and
    // must not leak into result serialization or checkpoint specs.
    RunSpec cached = spec;
    cached.engine.cache_path =
        config_.cache_dir + "/" + memo_cache_file_name(tb->name(), spec.engine);
    return make_optimizer(cached, std::move(tb));
  }
  return make_optimizer(spec, std::move(tb));
}

void Campaign::attach_forwarder(std::size_t index) {
  sessions_[index].optimizer->add_observer(
      std::make_shared<IterationForwarder>(hub_, index, sessions_[index].spec));
}

bool Campaign::retry_session(std::size_t index) {
  Session& s = sessions_[index];
  ++s.retries;
  // Replay is observer-silent, exactly like load(): already-reported
  // iterations must not log or forward twice, so the fresh session runs with
  // progress_log off and no forwarder until the replay succeeded.
  RunSpec quiet = s.spec;
  quiet.progress_log = false;
  std::unique_ptr<Optimizer> fresh;
  try {
    fresh = build_optimizer(quiet);
    for (std::size_t k = 0; k < s.steps; ++k) {
      if (!fresh->step()) return false;
    }
  } catch (const std::exception&) {
    return false;  // deterministic failure: the replay hit the same throw
  }
  if (fresh->done()) return false;  // drift: was live at the recorded count
  // Only now replace the broken optimizer — retire_failed still needs the
  // original (cancel() finalizes a partial result) when the retry fails.
  s.optimizer = std::move(fresh);
  if (s.spec.progress_log) s.optimizer->add_observer(std::make_shared<ProgressLogObserver>());
  attach_forwarder(index);
  return true;
}

void Campaign::retire_finished(std::size_t index) {
  Session& s = sessions_[index];
  s.state = SessionState::Finished;
  s.result = s.optimizer->result();
  s.optimizer.reset();
  result_valid_ = false;
  for (const auto& obs : hub_->observers) obs->on_session_finish(index, s.spec, s.result);
}

void Campaign::retire_failed(std::size_t index, std::string error) {
  Session& s = sessions_[index];
  s.state = SessionState::Failed;
  s.error = std::move(error);
  // cancel() between steps finalizes immediately with a well-formed partial
  // result (the session base guarantees this even after a throwing step).
  s.optimizer->cancel("campaign-session-error");
  s.result = s.optimizer->result();
  s.optimizer.reset();
  result_valid_ = false;
  for (const auto& obs : hub_->observers) obs->on_session_error(index, s.spec, s.error);
}

std::size_t Campaign::next_live(std::size_t from) const {
  const std::size_t n = sessions_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (from + k) % n;
    if (!sessions_[i].terminal()) return i;
  }
  return n;
}

bool Campaign::step() {
  if (sessions_.empty()) return false;
  const std::size_t index = next_live(cursor_);
  if (index == sessions_.size()) return false;
  cursor_ = (index + 1) % sessions_.size();

  Session& s = sessions_[index];
  if (s.state == SessionState::Pending) {
    for (const auto& obs : hub_->observers) obs->on_session_start(index, s.spec);
    s.state = SessionState::Running;
    result_valid_ = false;
  }

  const std::size_t turn = config_.steps_per_turn == 0 ? 1 : config_.steps_per_turn;
  for (std::size_t t = 0; t < turn; ++t) {
    try {
      if (!s.optimizer->step()) break;
      ++s.steps;
      result_valid_ = false;
    } catch (const std::exception& e) {
      // Transient-error recovery: rebuild-and-replay the session (the load()
      // mechanism), draining the retry budget before retiring it — a
      // deterministic failure re-throws during every replay.  On success the
      // failed step is re-attempted on the session's next scheduling turn.
      bool recovered = false;
      while (s.retries < config_.max_session_retries) {
        if (retry_session(index)) {
          recovered = true;
          break;
        }
      }
      if (recovered) break;
      retire_failed(index, e.what());
      break;
    }
    if (s.optimizer->done()) break;
  }
  if (s.state == SessionState::Running && s.optimizer->done()) retire_finished(index);

  enforce_campaign_budget();
  return true;
}

void Campaign::enforce_campaign_budget() {
  if (config_.max_total_simulations == 0) return;
  if (total_simulations() < config_.max_total_simulations) return;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session& s = sessions_[i];
    if (s.terminal()) continue;
    const bool was_pending = s.state == SessionState::Pending;
    s.optimizer->cancel("campaign-simulation-budget");
    if (was_pending) {
      for (const auto& obs : hub_->observers) obs->on_session_start(i, s.spec);
    }
    s.state = SessionState::Running;  // retire_finished asserts a live state
    retire_finished(i);
  }
}

const CampaignResult& Campaign::run() {
  while (step()) {
  }
  return result();
}

bool Campaign::done() const {
  for (const Session& s : sessions_) {
    if (!s.terminal()) return false;
  }
  return true;
}

std::size_t Campaign::session_count() const { return sessions_.size(); }

std::size_t Campaign::sessions_remaining() const {
  std::size_t live = 0;
  for (const Session& s : sessions_) live += s.terminal() ? 0 : 1;
  return live;
}

std::uint64_t Campaign::total_simulations() const {
  std::uint64_t total = 0;
  for (const Session& s : sessions_) {
    if (s.terminal()) {
      total += s.result.n_simulations;
    } else if (const EvaluationEngine* engine = s.optimizer->engine()) {
      total += engine->simulation_count();
    }
  }
  return total;
}

const CampaignResult& Campaign::result() const {
  if (!done()) {
    throw std::logic_error(
        "Campaign::result(): sessions still live; drive step() until done()");
  }
  if (!result_valid_) {
    result_.entries.clear();
    result_.entries.reserve(sessions_.size());
    result_.total_simulations = 0;
    result_.finished = 0;
    result_.failed = 0;
    result_.session_retries = 0;
    for (const Session& s : sessions_) {
      CampaignEntry entry;
      entry.spec = s.spec;
      entry.state = s.state;
      entry.steps = s.steps;
      entry.retries = s.retries;
      entry.result = s.result;
      entry.error = s.error;
      result_.entries.push_back(std::move(entry));
      result_.total_simulations += s.result.n_simulations;
      result_.session_retries += s.retries;
      result_.finished += s.state == SessionState::Finished ? 1 : 0;
      result_.failed += s.state == SessionState::Failed ? 1 : 0;
    }
    result_valid_ = true;
  }
  return result_;
}

void Campaign::add_observer(std::shared_ptr<CampaignObserver> observer) {
  if (observer) hub_->observers.push_back(std::move(observer));
}

// ---------------------------------------------------------------------------
// Checkpoint format (versioned, line-oriented text; doubles round-trip via
// max_digits10 like RunSpec).  See docs/architecture.md#checkpoint-format.

namespace {

constexpr const char* kMagic = "glova-campaign";
/// v1: in-flight sessions resume by deterministic replay.  v2 additionally
/// records per-session retry counts and embeds each in-flight session's full
/// serialized optimizer state (Optimizer::save_state), so load() restores
/// them O(1) with zero step() replays.  v3 adds the persistent memo-cache
/// directory (CampaignConfig::cache_dir), so a restarted daemon keeps
/// re-serving previously simulated points.  All three versions load.
constexpr int kFormatVersion = 3;

[[noreturn]] void bad_checkpoint(const std::string& what) {
  throw std::runtime_error("Campaign checkpoint: " + what);
}

}  // namespace

void Campaign::save(std::ostream& os) const {
  os << kMagic << " v" << kFormatVersion << '\n';
  os << "max_total_simulations " << config_.max_total_simulations << '\n';
  os << "steps_per_turn " << config_.steps_per_turn << '\n';
  os << "cache_dir " << state::one_line(config_.cache_dir) << '\n';
  os << "cursor " << cursor_ << '\n';
  os << "sessions " << sessions_.size() << '\n';
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const Session& s = sessions_[i];
    os << "session " << i << '\n';
    os << "spec " << s.spec.to_string() << '\n';
    os << "state " << to_string(s.state) << '\n';
    os << "steps " << s.steps << '\n';
    os << "retries " << s.retries << '\n';
    if (s.state == SessionState::Failed) os << "error " << state::one_line(s.error) << '\n';
    if (s.terminal()) write_glova_result(os, s.result);
    if (s.state == SessionState::Running) {
      // A Running session with steps > 0 has a started optimizer; serialize
      // its full state so load() resumes it without replay.  One that has
      // taken no step is rebuilt by the v1 replay mechanism, which handles
      // steps == 0 as a fresh build.
      if (s.steps > 0) {
        os << "resume state\n";
        s.optimizer->save_state(os);
      } else {
        os << "resume replay\n";
      }
    }
  }
  os << "end\n";
  if (!os) bad_checkpoint("write failed");
}

void Campaign::save_file(const std::string& path) const {
  // Crash-safe: serialized in memory first, then written via the fsync +
  // temp-sibling + rename pattern, so neither an interrupted save nor a
  // power loss right after the rename can leave a truncated checkpoint
  // where a good one stood.
  std::ostringstream os;
  save(os);
  atomic_write_file(path, os.str());
}

Campaign Campaign::load(std::istream& is,
                        std::function<circuits::TestbenchPtr(const RunSpec&)> make_testbench) {
  int version = 0;
  {
    std::string magic;
    std::string version_text;
    std::string header;
    if (!std::getline(is, header)) bad_checkpoint("empty input");
    std::istringstream line(header);
    line >> magic >> version_text;
    if (magic != kMagic) bad_checkpoint("not a campaign checkpoint (bad magic '" + magic + "')");
    if (version_text == "v1") {
      version = 1;
    } else if (version_text == "v2") {
      version = 2;
    } else if (version_text == "v3") {
      version = 3;
    } else {
      bad_checkpoint("unsupported format version '" + version_text +
                     "' (this build reads v1, v2 and v3)");
    }
  }

  // A "<tag> <unsigned>" line; the tag names the field in error messages.
  const auto read_field = [&is](std::string_view tag) {
    return state::parse_u64(state::expect_line(is, tag), tag);
  };
  Campaign campaign;
  campaign.config_.make_testbench = std::move(make_testbench);
  campaign.config_.max_total_simulations = read_field("max_total_simulations");
  campaign.config_.steps_per_turn = static_cast<std::size_t>(read_field("steps_per_turn"));
  if (version >= 3) campaign.config_.cache_dir = state::expect_line(is, "cache_dir");
  campaign.cursor_ = static_cast<std::size_t>(read_field("cursor"));
  const std::size_t count = static_cast<std::size_t>(read_field("sessions"));
  if (count > state::kMaxCount) {
    bad_checkpoint("implausible session count " + std::to_string(count));
  }

  campaign.sessions_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (read_field("session") != i) {
      bad_checkpoint("session records out of order");
    }
    Session s;
    s.spec = RunSpec::from_string(state::expect_line(is, "spec"));
    const std::string state_name = state::expect_line(is, "state");
    const auto session_state = session_state_from_string(state_name);
    if (!session_state) bad_checkpoint("unknown session state '" + state_name + "'");
    s.state = *session_state;
    s.steps = static_cast<std::size_t>(read_field("steps"));
    if (version >= 2) s.retries = static_cast<std::size_t>(read_field("retries"));
    if (s.state == SessionState::Failed) s.error = state::expect_line(is, "error");
    if (s.terminal()) s.result = read_glova_result(is);
    if (version >= 2 && s.state == SessionState::Running) {
      const std::string mode = state::expect_line(is, "resume");
      if (mode == "state") {
        // Replay-free resume: build a fresh session and restore its full
        // serialized state in place — O(1), zero optimizer step() replays.
        // Built observer-quiet like the replay path; the ProgressLogObserver
        // and forwarder attach below, seeing only new iterations.
        RunSpec quiet = s.spec;
        quiet.progress_log = false;
        s.optimizer = campaign.build_optimizer(quiet);
        s.optimizer->load_state(is);
      } else if (mode != "replay") {
        bad_checkpoint("unknown resume mode '" + mode + "'");
      }
    }
    campaign.sessions_.push_back(std::move(s));
  }
  (void)state::expect_line(is, "end");
  if (campaign.cursor_ >= count && count > 0) bad_checkpoint("cursor out of range");

  // Rebuild the remaining in-flight sessions by deterministic replay: a
  // fresh session re-stepped to its recorded count reaches the same state as
  // the one that was checkpointed (fixed-seed determinism, pinned by the
  // parity tests).  Replay is observer-silent: forwarders attach afterwards
  // (observers added post-load see only new iterations), and the spec's
  // ProgressLogObserver is attached after replay too so already-reported
  // iterations do not log twice.
  for (std::size_t i = 0; i < campaign.sessions_.size(); ++i) {
    Session& s = campaign.sessions_[i];
    if (s.terminal()) continue;
    if (!s.optimizer) {
      RunSpec quiet = s.spec;
      quiet.progress_log = false;
      s.optimizer = campaign.build_optimizer(quiet);
      const std::size_t replay = s.steps;
      s.steps = 0;
      for (std::size_t k = 0; k < replay; ++k) {
        try {
          if (!s.optimizer->step()) break;
          ++s.steps;
        } catch (const std::exception& e) {
          campaign.retire_failed(i, e.what());
          break;
        }
      }
      if (s.steps != replay && s.state != SessionState::Failed) {
        bad_checkpoint("replay of session " + std::to_string(i) + " stopped after " +
                       std::to_string(s.steps) + " of " + std::to_string(replay) + " steps");
      }
      if (!s.terminal() && s.optimizer->done()) {
        // A replayed session should stop strictly before termination (it was
        // live at save time); tolerate drift by retiring it cleanly.
        s.state = SessionState::Running;
        campaign.retire_finished(i);
      }
    }
    if (!s.terminal()) {
      if (s.spec.progress_log) s.optimizer->add_observer(std::make_shared<ProgressLogObserver>());
      campaign.attach_forwarder(i);
    }
  }
  return campaign;
}

Campaign Campaign::load_file(
    const std::string& path,
    std::function<circuits::TestbenchPtr(const RunSpec&)> make_testbench) {
  std::ifstream is(path);
  if (!is) bad_checkpoint("cannot open '" + path + "' for reading");
  return load(is, std::move(make_testbench));
}

}  // namespace glova::core
