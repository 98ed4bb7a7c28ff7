// MNA-based circuit simulation: Newton-Raphson operating point and
// transient analysis (backward-Euler startup, trapezoidal after) on an
// LTE-adaptive timestep, with the EKV channel model (mos_model.hpp).
//
// Unknown ordering: voltages of the *free* nodes (ground and source-pinned
// nodes eliminated), followed by one branch current per non-absorbed
// independent voltage source, then one per VCVS.  Nonlinear devices
// (MOSFETs) are linearized each Newton iteration via their companion model;
// a global gmin keeps matrices non-singular when devices cut off.
//
// Assembly is driven by a compiled StampPlan: the circuit is walked once at
// Simulator construction and every stamp is resolved to a flat index into
// the matrix/RHS storage.  Each Newton iteration then reduces to one memcpy
// of a cached static matrix, one memcpy of a per-timestep RHS base, one
// pass of the channel kernel over every MOSFET (mos_model.hpp), and a tight
// companion stamp pass with no per-stamp ground checks (ground and pinned
// rows/columns target write-only scratch slots appended to the storage).
//
// Structure awareness: a node tied to ground through an ideal voltage
// source has a known voltage, so the plan absorbs it — the node unknown and
// the source's branch-current unknown drop out of the solved system, known
// voltages feed the RHS, and the branch current is recovered from KCL after
// the solve.  On the StrongARM testbench this shrinks the MNA system from
// 13 to 5 unknowns.  The absorbed and full-branch formulations agree
// exactly in exact arithmetic; floating-point results agree to within the
// Newton voltage tolerance (set SimulatorOptions::pin_grounded_sources =
// false to fall back to the classic formulation).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/lu.hpp"
#include "spice/mos_model.hpp"

namespace glova::spice {

struct OpResult {
  bool converged = false;
  /// Total Newton iterations spent, summed over warm-start attempts and
  /// source-stepping ramps (failed attempts included).
  int iterations = 0;
  /// True when the solve converged from a caller-provided warm start.
  bool warm_started = false;
  std::vector<double> node_voltages;  ///< indexed by NodeId (ground included, = 0)
  std::vector<double> vsource_currents;
};

/// Transient configuration.
struct TransientSpec {
  double t_stop = 1e-9;
  double dt = 1e-12;
  /// If true, start from `initial_conditions` instead of a DC operating
  /// point (HSPICE "UIC").  Nodes absent from the map start at 0 V.
  bool use_ic = false;
  std::map<std::string, double> initial_conditions;
  /// Node names to record (empty = record every node).  Voltage-source
  /// currents are always recorded as "I(<name>)".
  std::vector<std::string> record;
};

/// Sampled waveform of one quantity over the transient run.
struct Trace {
  std::string name;
  std::vector<double> values;
};

/// Where in the simulation a run gave up (FailureStage::None = no failure).
enum class FailureStage : std::uint8_t {
  None = 0,
  Setup,             ///< malformed spec (non-positive dt / t_stop, unknown node)
  DcOperatingPoint,  ///< initial DC solve failed cold and under source stepping
  Timestep,          ///< a timestep's Newton solve failed at dt_min
};
[[nodiscard]] const char* to_string(FailureStage stage);

/// Structured failure taxonomy replacing the bare error string: what stage
/// gave up, at what simulated time, and the worst KCL-residual row of the
/// last failed iterate.
struct FailureReport {
  FailureStage stage = FailureStage::None;
  double time = 0.0;           ///< [s] simulated time of the failing solve
  double final_residual = 0.0; ///< [A] worst KCL residual of the last iterate
  std::string worst_node;      ///< node name (or "branch k") of that residual
  std::string message;         ///< free-text detail (Setup stage: verbatim)

  [[nodiscard]] bool failed() const { return stage != FailureStage::None; }
  /// Render the canonical one-line error message for TransientResult::error.
  [[nodiscard]] std::string to_string() const;
};

struct TransientResult {
  bool ok = false;
  std::string error;
  /// Structured view of `error` (stage None when ok).
  FailureReport failure;
  std::vector<double> times;
  std::vector<Trace> traces;
  /// The DC operating point the run started from (empty when use_ic).
  /// Callers can cache it and pass it back to Simulator::transient as the
  /// warm start for related runs (e.g. mismatch draws of the same design).
  OpResult dc_op;
  /// Newton iterations spent on the initial DC solve (0 when use_ic).
  int dc_iterations = 0;
  /// Newton iterations summed over all timesteps (excluding the DC solve).
  std::uint64_t newton_iterations = 0;
  /// Timestep-controller observability: accepted steps (== times.size() - 1
  /// on success), rejected-and-redone steps (LTE or Newton failure), and
  /// the dt of every accepted step in order.
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected = 0;
  std::vector<double> dt_trace;

  /// Access a trace by name ("out", "I(VDD)"); throws std::out_of_range.
  /// O(1) after the first lookup: a name -> index map is built lazily and
  /// rebuilt if traces were appended since.  Not safe to call concurrently
  /// with the first lookup on the same result object.
  [[nodiscard]] const std::vector<double>& trace(const std::string& name) const;
  [[nodiscard]] bool has_trace(const std::string& name) const;

 private:
  [[nodiscard]] const Trace* find_trace(const std::string& name) const;
  mutable std::unordered_map<std::string, std::size_t> trace_index_;
};

struct SimulatorOptions {
  double gmin = 1e-12;          ///< [S] from every node to ground
  double abstol = 1e-12;        ///< [A]
  double vtol = 1e-9;           ///< [V] Newton convergence on voltage update
  double max_step_voltage = 0.5;///< [V] Newton damping clamp
  int max_newton_iterations = 200;
  int source_steps = 10;        ///< source-stepping ramp points for hard OPs
  /// Absorb grounded ideal voltage sources: their node voltage becomes a
  /// known, removing the node and branch-current unknowns from the solved
  /// system (branch currents are recovered from KCL).  Disable to force the
  /// classic full-branch MNA formulation.
  bool pin_grounded_sources = true;

  /// --- LTE-adaptive timestep control (transient only) -------------------
  /// TransientSpec::dt is the *initial* step; the controller grows/shrinks
  /// dt from a local-truncation-error estimate (divided differences over
  /// the accepted history: second difference for the backward-Euler
  /// startup steps, third for trapezoidal).  Steps are forced to land on
  /// waveform breakpoints, and the step size resets to spec.dt after each
  /// breakpoint (the integration order drops across a slope discontinuity,
  /// so history from before it is not trusted).
  double lte_reltol = 2e-3;     ///< LTE tolerance relative to the node swing
  double lte_abstol = 1e-4;     ///< [V] LTE absolute tolerance floor
  double lte_safety = 0.9;      ///< target a little inside the tolerance
  double dt_grow_limit = 2.0;   ///< max dt growth per accepted step
  double dt_shrink_limit = 0.1; ///< min dt shrink per rejected step
  double dt_min_factor = 1e-3;  ///< dt never drops below spec.dt * this
  double dt_max_factor = 16.0;  ///< dt never grows above spec.dt * this
};

struct SpiceCounterBlock;  // spice/counters.hpp

/// The numerics one evaluation runs with: the options a testbench backend
/// builds its Simulator from, whether its DC solve is seeded from the
/// thread's warm-start cache, and the counter block its simulations and
/// cache lookups add to.  core::EvaluationEngine builds one from its
/// EngineConfig and installs it around every Testbench::evaluate call, so
/// engines in one process never run on each other's settings or counts.
struct EvaluationContext {
  SimulatorOptions options;
  bool dc_warm_start = true;
  /// Null: the events count only into the process totals.
  SpiceCounterBlock* counters = nullptr;
};

/// The context installed on the calling thread.  Outside every
/// ScopedContext it is the default one: SimulatorOptions{}, warm start on,
/// no counter block.
[[nodiscard]] const EvaluationContext& current_context();

/// Installs `context` on the calling thread for the scope's lifetime and
/// restores the previous one on exit.  The context must outlive the scope.
class ScopedContext {
 public:
  explicit ScopedContext(const EvaluationContext& context);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  const EvaluationContext* previous_;
};

/// Deterministic fault injection for tests and benches (off by default).
/// A plan is installed thread-locally, not in the EvaluationContext: it is a
/// test-only seam around bare simulations and engine calls alike, and an
/// engine field for it would add a test knob to EngineConfig.  While one is
/// installed, every Newton solve on that thread consumes one solve index (DC
/// attempts, source-stepping rungs and timestep solves all count), and a
/// site whose half-open [begin, end) range covers the index forces the
/// chosen failure mode on that solve.
struct FaultPlan {
  enum class Kind : std::uint8_t {
    NanStamp,        ///< poison the assembled RHS with a NaN
    SingularMatrix,  ///< zero a matrix row so factorization fails
    NonConverge,     ///< burn max_newton_iterations and report failure
  };
  struct Site {
    std::uint64_t begin = 0;    ///< first faulted solve index
    std::uint64_t end = 0;      ///< one past the last faulted solve index
    Kind kind = Kind::NonConverge;
  };
  std::vector<Site> sites;
  /// Solve indices consumed on this thread since the plan was installed.
  /// An empty plan still counts, so tests can dry-run to number the solves.
  mutable std::uint64_t cursor = 0;

  [[nodiscard]] const Site* match(std::uint64_t index) const;
};

/// Install (nullptr: clear) the calling thread's fault plan.  The plan must
/// outlive its installation.  Test/bench-only; never installed in production.
void set_thread_fault_plan(const FaultPlan* plan);
[[nodiscard]] const FaultPlan* thread_fault_plan();

enum class AnalysisMode { Op, Transient };

/// Everything fixed over one Newton solve (one DC point or one timestep).
/// The Newton iterate itself is passed to StampPlan::stamp each iteration.
struct AssemblyInputs {
  AnalysisMode mode = AnalysisMode::Op;
  double time = 0.0;
  double dt = 0.0;
  double source_scale = 1.0;
  bool trapezoidal = false;
  /// Previous-timepoint solution in padded layout (see StampPlan::padded_size);
  /// required in Transient mode.
  std::span<const double> x_prev{};
  /// Per-capacitor branch current i_n (trapezoidal companion); Transient only.
  std::span<const double> cap_current_prev{};
};

/// Compiled assembly plan for one circuit topology.
///
/// Construction walks the circuit once, classifies every node (ground /
/// pinned-by-source / unknown), and resolves every stamp to a flat index
/// into the matrix storage:
///   * linear static stamps (gmin, resistors, source/VCVS incidence, VCCS)
///     become (slot, value) pairs; entries in a pinned column become
///     RHS-base contributions instead,
///   * capacitor companion conductances become 4-slot records whose geq is
///     filled in per integration mode / dt,
///   * each MOSFET's Jacobian targets (rows {drain, source} x columns
///     {gate, drain, source}, plus the two RHS entries and the three iterate
///     reads) are precomputed, with ground/pinned rows and columns
///     redirected to write-only scratch slots so the stamping loop is
///     branch-free; terminal masks fold known-voltage terms into the
///     companion RHS,
///   * for each absorbed source, a KCL recovery list (conductances, cap
///     companion currents, MOS channels, neighbor branch currents) rebuilds
///     the branch current from the solved voltages.
///
/// The plan holds pointers into the Circuit; the Circuit must outlive it.
class StampPlan {
 public:
  StampPlan(const Circuit& circuit, const SimulatorOptions& options);

  /// Solved unknowns: free node voltages, then branch currents.
  [[nodiscard]] std::size_t unknown_count() const { return n_; }
  /// Free (unknown) node voltages — the damping clamp applies to these.
  [[nodiscard]] std::size_t unknown_node_count() const { return nu_; }
  /// Nodes absorbed because an ideal grounded source pins their voltage.
  [[nodiscard]] std::size_t pinned_count() const { return pinned_.size(); }
  /// Length of padded solution vectors: unknown_count() + pinned_count() + 1.
  /// Pinned node voltages live after the unknowns (filled from begin_solve's
  /// values via load_pinned); the final slot stands in for ground and is
  /// pinned to 0.
  [[nodiscard]] std::size_t padded_size() const { return n_ + pinned_.size() + 1; }

  /// Index into a padded solution vector for any node (unknown, pinned, or
  /// ground — ground maps to the trailing zero slot).
  [[nodiscard]] std::size_t x_slot(NodeId node) const { return node_slot_[node]; }
  /// True if the node's voltage is a solved unknown.
  [[nodiscard]] bool node_is_unknown(NodeId node) const { return node_slot_[node] < nu_; }

  /// Sentinel for "no solved slot" (absorbed source branch).
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  /// x-slot of a voltage source's branch-current unknown, or kNoSlot when
  /// the source was absorbed into a pinned node.
  [[nodiscard]] std::size_t vsource_branch_slot(std::size_t si) const {
    return vsrc_branch_[si];
  }

  /// Rebuild the cached static matrix / RHS base for one Newton solve.  The
  /// static matrix is keyed on (mode, integration method, dt) and reused
  /// across solves when the key is unchanged; the RHS base and the pinned
  /// node voltages are rebuilt every call (they depend on time, source
  /// scale, and the previous timestep).
  void begin_solve(const AssemblyInputs& in);

  /// Copy the pinned node voltages computed by begin_solve into the padded
  /// region of `x` (and re-pin the ground slot to 0).
  void load_pinned(std::span<double> x) const;

  /// One Newton iteration's assembly: copy the cached static parts into
  /// `g` / `rhs`, then stamp the MOSFET companion models around iterate `x`,
  /// every channel evaluated in one pass of the channel kernel on `lanes`.
  /// `x` must have padded_size() entries with the pinned/ground tail loaded
  /// via load_pinned(); `rhs` needs unknown_count() + 1 entries; `g` must be
  /// sized to unknown_count().
  void stamp(std::span<const double> x, DenseMatrix& g, std::span<double> rhs,
             ChannelLanes& lanes) const;

  /// True nonlinear KCL residual at iterate `x` for the current solve:
  /// r = G_static * x + i_mos(x) - rhs_base, row for row the amount by which
  /// the assembled equations are violated.  Failure reports use it to name
  /// the worst row of a failed iterate.  Must be called between
  /// begin_solve() and the next begin_solve(); `x` as in stamp(); `r` needs
  /// unknown_count() + 1 entries (trailing scratch slot).
  void residual(std::span<const double> x, std::span<double> r, ChannelLanes& lanes) const;

  /// Fill `out[si]` with the branch current of every independent voltage
  /// source: read from the solution for branch-form sources, recovered from
  /// KCL at the pinned node for absorbed ones.  `cap_current` may be empty
  /// (operating point: capacitors open).  `time`/`source_scale` evaluate
  /// current-source waveforms appearing in the recovery sums.  The channel
  /// currents come from one pass of the channel kernel on `lanes`.
  void vsource_currents(std::span<const double> x, std::span<const double> cap_current,
                        double time, double source_scale, std::span<double> out,
                        ChannelLanes& lanes) const;

 private:
  struct LinearStamp {
    std::size_t slot;
    double value;
  };
  /// One MOSFET's resolved stamp targets: Jacobian / RHS / iterate-read
  /// slots plus its channel constants.
  struct MosStamp {
    std::size_t j_dg, j_dd, j_ds;  ///< drain-row Jacobian slots
    std::size_t j_sg, j_sd, j_ss;  ///< source-row Jacobian slots
    std::size_t rhs_d, rhs_s;
    std::size_t xg, xd, xs;        ///< padded solution reads
    double mg, md, ms;             ///< 1.0 iff that terminal is an unknown node
    MosChannel channel;            ///< hoisted out of the Newton loop
  };
  /// Static matrix entry whose column is a pinned node: the known voltage
  /// contribution goes to the RHS base instead (rhs[row] += coeff * V_pin).
  struct PinnedRhsStamp {
    std::size_t rhs_row;
    double coeff;
    std::size_t pin;      ///< index into pinned_vals_
  };
  struct CapStamp {
    std::size_t aa, ab, bb, ba;  ///< matrix slots (scratch unless unknown x unknown)
    std::size_t rhs_a, rhs_b;    ///< RHS slots (scratch unless unknown)
    std::size_t xa, xb;          ///< padded solution reads for v_prev
    std::size_t pin_a, pin_b;    ///< pinned_vals_ index or kNoPin
    double farads;
  };
  struct VsrcStamp {
    std::size_t branch;          ///< RHS row of the source's branch equation
    const Waveform* waveform;
  };
  struct IsrcStamp {
    std::size_t rhs_pos, rhs_neg;
    const Waveform* waveform;
  };
  /// A source absorbed into a known node voltage.
  struct PinnedSource {
    std::size_t vsource_index;
    NodeId node;
    double sign;                 ///< V_node = sign * waveform(t) * scale
    const Waveform* waveform;
  };
  /// One KCL term of a pinned source's recovered branch current.
  struct RecoveryTerm {
    enum class Kind : std::uint8_t {
      Conductance,    ///< coeff * (x[xa] - x[xb])   (resistors, gmin, VCCS)
      CapCurrent,     ///< coeff * cap_current[index]
      MosChannel,     ///< coeff * i_ds(x) of recovery lane `index` (drain +1 / source -1)
      SourceCurrent,  ///< coeff * waveform(t) * scale
      BranchCurrent,  ///< coeff * x[index]          (neighbor V/E branch)
    };
    Kind kind;
    double coeff = 0.0;
    std::size_t xa = 0, xb = 0;
    std::size_t index = 0;
    const Waveform* waveform = nullptr;
  };

  static constexpr std::size_t kNoPin = kNoSlot;

  /// The linear half of stamp(): copy the cached static matrix / RHS base
  /// into `g` / `rhs` without the MOSFET companion pass.
  void load_static(DenseMatrix& g, std::span<double> rhs) const;
  [[nodiscard]] std::size_t mat_slot(NodeId row, NodeId col) const;
  [[nodiscard]] std::size_t rhs_slot(NodeId node) const;
  [[nodiscard]] std::size_t pin_index(NodeId node) const { return node_pin_[node]; }
  /// Route one static matrix entry (row, col, value): unknown x unknown
  /// becomes a LinearStamp in `out`; a pinned column becomes a
  /// PinnedRhsStamp; a pinned/ground row is dropped.
  void route_static(std::vector<LinearStamp>& out, NodeId row, NodeId col, double value);
  /// Same, for rows addressed directly by unknown index (branch equations).
  void route_static_row(std::vector<LinearStamp>& out, std::size_t row_unknown, NodeId col,
                        double value);
  void append_conductance(NodeId a, NodeId b, double cond);
  /// Orient and lane passes of the channel kernel for every MOSFET at
  /// iterate `x`; finish() on `lanes` then yields each linearization.
  void evaluate_channels(std::span<const double> x, ChannelLanes& lanes) const;
  void build_recovery(const Circuit& circuit, const SimulatorOptions& options);

  std::size_t n_ = 0;         ///< solved unknowns
  std::size_t nu_ = 0;        ///< unknown node voltages (first in the ordering)
  std::size_t n_nodes_ = 0;   ///< including ground
  std::size_t stride_ = 0;    ///< padded row stride (DenseMatrix::row_stride)
  std::size_t scratch_ = 0;   ///< flat matrix scratch slot (n_*stride_)
  std::vector<std::size_t> node_slot_;     ///< NodeId -> padded x slot
  std::vector<std::size_t> node_pin_;      ///< NodeId -> pinned_vals_ index or kNoPin
  std::vector<std::size_t> vsrc_branch_;   ///< vsource index -> x slot or kNoPin
  std::vector<PinnedSource> pinned_;
  std::vector<std::vector<RecoveryTerm>> recovery_;  ///< per pinned source
  /// mosfets_ index of each channel the recovery sums name, one lane each:
  /// vsource_currents() evaluates only these.
  std::vector<std::size_t> recovery_mosfets_;

  std::vector<LinearStamp> pre_cap_;   ///< gmin + resistors (applied before caps)
  std::vector<CapStamp> caps_;
  std::vector<LinearStamp> post_cap_;  ///< source/VCVS incidence + VCCS
  std::vector<PinnedRhsStamp> pinned_rhs_;  ///< static pinned-column terms
  std::vector<VsrcStamp> vsrcs_;       ///< branch-form sources only
  std::vector<IsrcStamp> isrcs_;
  std::vector<MosStamp> mosfets_;

  // Cached static assembly, keyed on what can change between Newton solves.
  struct StaticKey {
    AnalysisMode mode = AnalysisMode::Op;
    bool trapezoidal = false;
    double dt = 0.0;
    bool valid = false;
  };
  StaticKey key_;
  std::vector<double> static_g_;   ///< n*stride + 1, scratch slot last
  std::vector<double> rhs_base_;   ///< n + 1, scratch slot last
  std::vector<double> pinned_vals_;///< per pinned source, set by begin_solve
};

/// Reusable scratch buffers for the Newton loop: the MNA matrix each
/// iteration assembles into and factor_solve_in_place destroys, the padded
/// RHS, the iterate produced by each solve, and the channel kernel's lanes.
/// Every buffer is fully overwritten before use, so sharing a workspace
/// across solves, timesteps, and even different circuits never changes
/// results — it only removes the per-solve heap traffic.  A workspace is
/// single-threaded state: use one per thread.
struct SimulatorWorkspace {
  DenseMatrix matrix;
  std::vector<double> rhs;    ///< unknown_count() + 1, scratch slot last
  std::vector<double> x_new;
  ChannelLanes channels;

  /// Size the matrix, RHS and iterate for an n-unknown system, reusing
  /// capacity (each StampPlan pass sizes the channel lanes for its own
  /// MOSFETs).
  void prepare(std::size_t n);
};

/// The calling thread's shared workspace.  Simulators constructed without an
/// explicit workspace use this one, so repeated evaluations on a worker
/// thread (the common testbench pattern) reuse the same buffers.
[[nodiscard]] SimulatorWorkspace& thread_local_workspace();

class Simulator {
 public:
  /// `workspace` may outlive-the-call scratch storage; nullptr selects the
  /// calling thread's shared workspace.  The workspace must not be used by
  /// two simulators concurrently.
  explicit Simulator(const Circuit& circuit, SimulatorOptions options = {},
                     SimulatorWorkspace* workspace = nullptr);

  /// DC operating point at t = 0 (capacitors open), including the cold
  /// restart and the source-stepping fallback.  `warm_start` optionally
  /// seeds Newton from a previously converged operating point of the same
  /// circuit topology (e.g. another mismatch draw of the same design); on
  /// any mismatch or failure the solver falls back to the cold-start path,
  /// so a warm start can change the iteration count but never the converged
  /// solution beyond vtol.  `failure`, when non-null, receives the
  /// structured report on non-convergence.
  [[nodiscard]] OpResult operating_point(const OpResult* warm_start = nullptr,
                                         FailureReport* failure = nullptr);

  /// Transient analysis.  `dc_warm_start` seeds the initial DC solve (no
  /// effect when spec.use_ic); the converged DC point is returned in
  /// TransientResult::dc_op for reuse.
  [[nodiscard]] TransientResult transient(const TransientSpec& spec,
                                          const OpResult* dc_warm_start = nullptr);

  [[nodiscard]] const StampPlan& plan() const { return plan_; }

 private:
  /// One damped Newton solve over the compiled plan: begin_solve,
  /// load_pinned, then iterate stamp / fused factor-solve / clamped update
  /// until the maximum node-voltage change drops below vtol.  `x` is the
  /// initial guess on entry and the converged iterate on exit (padded
  /// layout); `iterations` is incremented by the iterations spent.
  [[nodiscard]] bool newton_solve(const AssemblyInputs& in, std::vector<double>& x,
                                  int& iterations);
  [[nodiscard]] double voltage_of(const std::vector<double>& x, NodeId node) const;

  const Circuit& circuit_;
  SimulatorOptions options_;
  SimulatorWorkspace* workspace_;
  StampPlan plan_;
  std::size_t n_nodes_;    ///< including ground
  std::size_t n_vsrc_;
};

}  // namespace glova::spice
