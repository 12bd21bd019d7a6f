//! Self-tuning collective selection.
//!
//! The paper's Figure 5/6 point is that no single allreduce wins at every
//! message size — the multicolor/ring/recursive-doubling curves cross. This
//! module turns that observation into a runtime policy: every
//! [`AlgoPolicy`] becomes a [`Tuner`] ([`AlgoPolicy::tuner`]) consulted per
//! bucket launch. `Fixed` is a tuner **pinned** to its one candidate — it
//! never probes, simulates or communicates — and `Auto` chooses bucket by
//! bucket.
//!
//! The tuner works in per-size-class terms (power-of-two byte classes).
//! During the first [`TunerConfig::probe_epochs`] epochs it rotates every
//! registered candidate across the live gradient buckets round-robin —
//! deterministically from `(bucket index + epoch) % candidates`, so every
//! rank launches the same algorithm for the same bucket seq without any
//! coordination — and attributes each completed bucket span's wall time to
//! the `(size class, candidate)` cell that launched it. When probing is
//! off (`probe_epochs == 0`) it instead replays the [`CostModel`] through
//! the fat-tree simulator and selects from modeled makespans.
//!
//! After the probe window the scores are **cluster-agreed**: every rank
//! contributes its local `(class, candidate) → ns/byte` table, the tables
//! are merged entry-wise with max (pessimistic agreement: the worst rank
//! wins), and every rank then picks the argmin candidate per class from the
//! *identical* merged table. Agreement matters because nonblocking
//! collectives derive their sub-communicator from the launch seq — ranks
//! that disagree on an algorithm for one seq deadlock or corrupt the sum.

use std::collections::BTreeMap;
use std::str::FromStr;
use std::sync::Arc;

use dcnn_simnet::{FatTree, SimOptions};

use crate::algorithms::{Allreduce, AllreduceAlgo, CostModel};
use crate::primitives::allgather_bytes;
use crate::runtime::{BucketSpan, Comm, CommStats};

/// How the trainer chooses an allreduce algorithm for each gradient bucket.
///
/// This is the typed replacement for threading a bare
/// `Arc<dyn Allreduce>` from call site to call site: a policy is
/// configuration (clonable, comparable, parseable from `DCNN_ALGO`), and
/// the executable handles are built where the policy is consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgoPolicy {
    /// Every bucket uses this one algorithm.
    Fixed(AllreduceAlgo),
    /// Per-bucket selection by a measurement-driven [`Tuner`].
    Auto(TunerConfig),
}

impl From<AllreduceAlgo> for AlgoPolicy {
    fn from(algo: AllreduceAlgo) -> Self {
        AlgoPolicy::Fixed(algo)
    }
}

impl AlgoPolicy {
    /// The launch-time selector for this policy — the one way to make a
    /// [`Tuner`]. `Fixed(a)` is a tuner pinned to `a`: one candidate and no
    /// probe window, so it always selects `a`, never runs the simulator or
    /// an agreement round, and renders `a`'s name as its decision table.
    pub fn tuner(&self) -> Tuner {
        Tuner::new(match self {
            AlgoPolicy::Fixed(a) => TunerConfig { candidates: vec![*a], probe_epochs: 0 },
            AlgoPolicy::Auto(cfg) => cfg.clone(),
        })
    }
}

/// `Fixed` renders as the algorithm ([`AllreduceAlgo::Display`]); `Auto`
/// renders as `auto` (default candidates) or `auto:<c1>,<c2>,...`.
impl std::fmt::Display for AlgoPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoPolicy::Fixed(a) => write!(f, "{a}"),
            AlgoPolicy::Auto(cfg) if *cfg == TunerConfig::default() => f.write_str("auto"),
            AlgoPolicy::Auto(cfg) => {
                f.write_str("auto:")?;
                for (i, c) in cfg.candidates.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

/// Accepts any [`AllreduceAlgo`] string (→ `Fixed`), `auto` (→ `Auto` with
/// the default candidate set), or `auto:<c1>,<c2>,...` (→ `Auto` over the
/// listed candidates, probing each once).
impl FromStr for AlgoPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "auto" {
            return Ok(AlgoPolicy::Auto(TunerConfig::default()));
        }
        if let Some(list) = s.strip_prefix("auto:") {
            let mut candidates = Vec::new();
            for part in list.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    return Err(format!("empty candidate in algo policy {s:?}"));
                }
                candidates.push(AllreduceAlgo::from_str(part)?);
            }
            return Ok(AlgoPolicy::Auto(TunerConfig::with_candidates(candidates)));
        }
        AllreduceAlgo::from_str(s).map(AlgoPolicy::Fixed)
    }
}

/// Configuration for the self-tuning selector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunerConfig {
    /// Algorithms the tuner may choose between. Must be non-empty; with a
    /// single candidate every selection is that algorithm (bitwise
    /// identical to `Fixed` of it), and with `probe_epochs == 0` as well
    /// the tuner *is* the pinned one `Fixed` builds.
    pub candidates: Vec<AllreduceAlgo>,
    /// Warm-up epochs that rotate candidates over the live buckets before
    /// the measured table is agreed and frozen. `0` disables probing: the
    /// tuner replays the [`CostModel`] through the fat-tree simulator
    /// instead, which is deterministic and needs no agreement round.
    pub probe_epochs: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig::with_candidates(AllreduceAlgo::all())
    }
}

impl TunerConfig {
    /// A config probing each of `candidates` once per bucket (one probe
    /// epoch per candidate).
    pub fn with_candidates(candidates: Vec<AllreduceAlgo>) -> Self {
        let probe_epochs = candidates.len();
        TunerConfig { candidates, probe_epochs }
    }
}

/// One selection decision handed out for a single bucket launch.
pub struct Selection {
    /// Power-of-two size class of the bucket (`bytes ≤ 1 << class`).
    pub class: u32,
    /// Index into [`TunerConfig::candidates`].
    pub candidate: usize,
    /// The executable algorithm to launch.
    pub handle: Arc<dyn Allreduce + Send + Sync>,
}

/// A score-table row: `(size class, candidate index, ns per byte)`.
pub type ScoreEntry = (u32, u32, f64);

/// Per-bucket algorithm selector, built by [`AlgoPolicy::tuner`]. See the
/// module docs for the probe → agree → converge lifecycle.
pub struct Tuner {
    cfg: TunerConfig,
    /// One candidate and no probe window: nothing to measure or decide.
    pinned: bool,
    handles: Vec<Arc<dyn Allreduce + Send + Sync>>,
    /// Completed training epochs observed via [`Tuner::end_epoch`].
    epoch: usize,
    /// World size, captured from the first selection.
    world: usize,
    /// Accumulated probe measurements: `(class, candidate) → (bytes, ns)`.
    measured: BTreeMap<(u32, usize), (u64, u64)>,
    /// Launch-ordered `(class, candidate)` assignments awaiting this
    /// epoch's bucket spans.
    pending: Vec<(u32, usize)>,
    /// Cached replay scores under the static prior model.
    replay_cache: BTreeMap<(u32, usize), f64>,
    /// The frozen per-class decision table.
    choices: BTreeMap<u32, usize>,
    /// Whether [`Tuner::apply_agreed`] has frozen the table.
    agreed: bool,
    /// Summation bandwidth re-seeded from measured bytes/ns (reporting +
    /// fallback scoring; never used for un-agreed selection).
    model: CostModel,
}

impl Tuner {
    /// A tuner over `cfg` with the default cold-start [`CostModel`].
    ///
    /// # Panics
    /// If the candidate list is empty.
    fn new(cfg: TunerConfig) -> Self {
        assert!(!cfg.candidates.is_empty(), "tuner needs at least one candidate algorithm");
        let handles: Vec<_> = cfg.candidates.iter().map(|a| a.build()).collect();
        Tuner {
            pinned: handles.len() == 1 && cfg.probe_epochs == 0,
            cfg,
            handles,
            epoch: 0,
            world: 2,
            measured: BTreeMap::new(),
            pending: Vec::new(),
            replay_cache: BTreeMap::new(),
            choices: BTreeMap::new(),
            agreed: false,
            model: CostModel::default(),
        }
    }

    /// The power-of-two size class of a `bytes`-byte bucket: the smallest
    /// `c` with `bytes ≤ 1 << c`.
    pub fn size_class(bytes: u64) -> u32 {
        bytes.max(1).next_power_of_two().trailing_zeros()
    }

    /// The registered candidates (never empty).
    pub fn candidates(&self) -> &[AllreduceAlgo] {
        &self.cfg.candidates
    }

    /// Completed epochs observed so far.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Whether the decision table has been frozen by cluster agreement.
    pub fn agreed(&self) -> bool {
        self.agreed
    }

    /// Whether the tuner is still inside its probe window.
    pub fn probing(&self) -> bool {
        self.epoch < self.cfg.probe_epochs
    }

    /// The measurement-seeded cost model (the cold-start prior until real
    /// bytes/ns have been observed).
    pub fn measured_model(&self) -> &CostModel {
        &self.model
    }

    /// Choose the algorithm for the bucket at plan `slot` holding `bytes`
    /// bytes, in a `world`-rank cluster. `track` must be true for
    /// nonblocking launches (the assignment is matched against the epoch's
    /// bucket spans in launch order by [`Tuner::end_epoch`]) and false for
    /// blocking calls, which report their own time via [`Tuner::record`].
    ///
    /// Deterministic from `(slot, completed epochs, frozen table)`, all of
    /// which are identical on every rank — so every rank launches the same
    /// algorithm for the same bucket seq without coordinating.
    pub fn select(&mut self, slot: usize, bytes: u64, world: usize, track: bool) -> Selection {
        self.world = world.max(2);
        let class = Tuner::size_class(bytes);
        let candidate = if self.probing() {
            (slot + self.epoch) % self.handles.len()
        } else {
            self.choice_for(class)
        };
        // A pinned tuner has nothing to attribute spans to, and its owner
        // need never call `end_epoch` to drain the list.
        if track && !self.pinned {
            self.pending.push((class, candidate));
        }
        Selection { class, candidate, handle: Arc::clone(&self.handles[candidate]) }
    }

    /// Report a blocking launch's measured wall time.
    pub fn record(&mut self, sel: &Selection, bytes: u64, ns: u64) {
        let e = self.measured.entry((sel.class, sel.candidate)).or_insert((0, 0));
        e.0 += bytes;
        e.1 += ns;
    }

    /// The frozen (or lazily replayed) choice for `class`.
    fn choice_for(&mut self, class: u32) -> usize {
        if self.pinned {
            return 0;
        }
        if let Some(&c) = self.choices.get(&class) {
            return c;
        }
        let c = if self.agreed {
            // A class never seen during probing (a bucket size that first
            // appears after the window closed). Borrow the nearest agreed class —
            // deterministic from the agreed table, hence cluster-safe.
            nearest_agreed_class(&self.choices, class).unwrap_or(0)
        } else {
            // Replay mode: score every candidate under the static prior
            // model (identical on every rank) and take the cheapest.
            let scores: Vec<f64> = (0..self.handles.len())
                .map(|cand| self.replay_score(class, cand))
                .collect();
            argmin(&scores)
        };
        self.choices.insert(class, c);
        c
    }

    /// Modeled ns/byte for `candidate` on a `1 << class`-byte bucket under
    /// the static prior cost model, via the fat-tree simulator.
    fn replay_score(&mut self, class: u32, candidate: usize) -> f64 {
        if let Some(&v) = self.replay_cache.get(&(class, candidate)) {
            return v;
        }
        // The static cold-start model, so replay selection is identical on
        // every rank without communication.
        let prior = CostModel::default();
        let v = simulated_ns_per_byte(self.cfg.candidates[candidate], class, self.world, &prior);
        self.replay_cache.insert((class, candidate), v);
        v
    }

    /// Fold one finished epoch's bucket spans into the measured table and
    /// advance the epoch counter. `spans` are the spans the parent
    /// communicator completed *during* the epoch (any order; they are
    /// matched to this epoch's launch-ordered assignments by seq).
    ///
    /// Returns true when the probe window just closed and the caller must
    /// run the agreement round ([`agree_scores`] + [`Tuner::apply_agreed`])
    /// before the next selection.
    pub fn end_epoch(&mut self, spans: &[BucketSpan]) -> bool {
        let mut by_seq: Vec<&BucketSpan> = spans.iter().collect();
        by_seq.sort_by_key(|s| s.seq);
        for (i, &(class, candidate)) in self.pending.iter().enumerate() {
            if let Some(s) = by_seq.get(i) {
                let e = self.measured.entry((class, candidate)).or_insert((0, 0));
                e.0 += s.bytes;
                e.1 += s.duration_ns();
            }
        }
        self.pending.clear();
        self.epoch += 1;
        let (bytes, ns) = self
            .measured
            .values()
            .fold((0u64, 0u64), |acc, &(b, n)| (acc.0 + b, acc.1 + n));
        if bytes > 0 && ns > 0 {
            self.model = CostModel::measured(bytes, ns);
        }
        self.cfg.probe_epochs > 0 && self.epoch >= self.cfg.probe_epochs && !self.agreed
    }

    /// This rank's local score table: measured ns/byte where probe data
    /// exists, simulated ns/byte under the measurement-seeded cost model
    /// where it does not (a candidate can miss a class when the probe
    /// window was shorter than the candidate list). Every entry flows
    /// through [`agree_scores`] before it is trusted, so locally seeded
    /// fallbacks cannot desynchronize ranks.
    pub fn score_table(&self) -> Vec<ScoreEntry> {
        let classes: std::collections::BTreeSet<u32> =
            self.measured.keys().map(|&(c, _)| c).collect();
        let mut out = Vec::new();
        for &class in &classes {
            for cand in 0..self.handles.len() {
                let score = match self.measured.get(&(class, cand)) {
                    Some(&(b, ns)) if b > 0 => ns as f64 / b as f64,
                    _ => simulated_ns_per_byte(
                        self.cfg.candidates[cand],
                        class,
                        self.world,
                        &self.model,
                    ),
                };
                out.push((class, cand as u32, score));
            }
        }
        out
    }

    /// Freeze the decision table from a cluster-agreed score table: per
    /// class, the candidate with the lowest agreed ns/byte (ties break to
    /// the lower candidate index).
    pub fn apply_agreed(&mut self, table: &[ScoreEntry]) {
        let mut per_class: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
        for &(class, cand, score) in table {
            per_class.entry(class).or_default().push((cand, score));
        }
        self.choices.clear();
        for (class, mut cands) in per_class {
            cands.sort_by_key(|a| a.0);
            let scores: Vec<f64> = cands.iter().map(|&(_, s)| s).collect();
            let best = cands[argmin(&scores)].0 as usize;
            self.choices.insert(class, best.min(self.handles.len() - 1));
        }
        self.agreed = true;
    }

    /// The epoch boundary as one call: fold the finished epoch's `spans`
    /// in ([`Tuner::end_epoch`]) and, on the epoch that closes the probe
    /// window, run the agreement round and freeze the table. **Collective
    /// on that epoch** — every rank reaches it with the same tuner state,
    /// so the embedded allgather is matched; a pinned tuner never
    /// communicates. Returns the rendered decision table.
    pub fn close_epoch(&mut self, comm: &Comm, spans: &[BucketSpan]) -> String {
        if self.end_epoch(spans) {
            let merged = agree_scores(comm, &self.score_table());
            self.apply_agreed(&merged);
        }
        self.decision_table()
    }

    /// Total nanoseconds `stats` attributes to the candidates' allreduce
    /// phases (two parameterizations of one algorithm share a phase label,
    /// so labels are deduplicated before summing).
    pub fn phase_ns(&self, stats: &CommStats) -> u64 {
        let names: std::collections::BTreeSet<&'static str> =
            self.cfg.candidates.iter().map(|c| c.name()).collect();
        names.iter().map(|n| stats.phase(n)).sum()
    }

    /// Render the current decision table: the algorithm's name when
    /// pinned, else `<=BYTES:algo` entries joined by `;` (comma-free, so it
    /// embeds in the metrics CSV), or `probe` while the warm-up window is
    /// still rotating candidates.
    pub fn decision_table(&self) -> String {
        if self.pinned {
            return self.handles[0].name().to_string();
        }
        if self.choices.is_empty() {
            return "probe".to_string();
        }
        let mut parts = Vec::with_capacity(self.choices.len());
        for (&class, &cand) in &self.choices {
            parts.push(format!("<={}:{}", 1u64 << class, self.cfg.candidates[cand]));
        }
        parts.join(";")
    }
}

/// Borrow the choice of the agreed size class nearest to `class`.
///
/// Tie-break contract: when two agreed classes are **equidistant** from
/// `class` (e.g. classes 10 and 14 around an unseen 12), the *smaller*
/// class wins. The comparison key is
/// `(distance, class)` over a `BTreeMap`, so the result is a pure function
/// of the agreed table — every rank holds the identical cluster-agreed
/// table, so every rank borrows the same choice. Anything
/// traversal-order- or tie-dependent here would desynchronize the
/// seq-derived bucket sub-communicators and deadlock the fabric.
fn nearest_agreed_class(choices: &BTreeMap<u32, usize>, class: u32) -> Option<usize> {
    choices.iter().min_by_key(|(k, _)| (k.abs_diff(class), **k)).map(|(_, &c)| c)
}

/// Index of the smallest score (ties break low — first occurrence wins).
fn argmin(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s < scores[best] {
            best = i;
        }
    }
    best
}

/// Modeled ns/byte for `algo` reducing a `1 << class`-byte payload across
/// `world` ranks of the modeled fat-tree under `cost`.
fn simulated_ns_per_byte(algo: AllreduceAlgo, class: u32, world: usize, cost: &CostModel) -> f64 {
    let bytes = (1u64 << class) as f64;
    let n = world.max(2);
    let secs = algo
        .build()
        .schedule(n, bytes, cost)
        .simulate(&FatTree::minsky(n), &SimOptions::default())
        .makespan;
    secs * 1e9 / bytes
}

/// Cluster-agree a score table: allgather every rank's entries and merge
/// them entry-wise with **max** (the pessimistic union — an algorithm is
/// only as fast as its slowest rank says). Every rank returns the same
/// merged table, so per-class argmin decisions match everywhere. Entries
/// present on one rank but not another survive with the values they have.
///
/// Collective: every rank must call this at the same point.
pub fn agree_scores(comm: &Comm, local: &[ScoreEntry]) -> Vec<ScoreEntry> {
    let mut mine = Vec::with_capacity(local.len() * 16);
    for &(class, cand, score) in local {
        mine.extend_from_slice(&class.to_le_bytes());
        mine.extend_from_slice(&cand.to_le_bytes());
        mine.extend_from_slice(&score.to_le_bytes());
    }
    let mut merged: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for theirs in allgather_bytes(comm, mine) {
        assert_eq!(theirs.len() % 16, 0, "malformed score table");
        for chunk in theirs.chunks_exact(16) {
            let class = u32::from_le_bytes(chunk[0..4].try_into().expect("4"));
            let cand = u32::from_le_bytes(chunk[4..8].try_into().expect("4"));
            let score = f64::from_le_bytes(chunk[8..16].try_into().expect("8"));
            let e = merged.entry((class, cand)).or_insert(score);
            if score > *e {
                *e = score;
            }
        }
    }
    merged.into_iter().map(|((class, cand), score)| (class, cand, score)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_cluster;

    fn span(seq: u64, bytes: u64, ns: u64) -> BucketSpan {
        BucketSpan { seq, bytes, launch_ns: 0, done_ns: ns, label: String::new() }
    }

    #[test]
    fn size_classes_are_ceil_pow2() {
        assert_eq!(Tuner::size_class(0), 0);
        assert_eq!(Tuner::size_class(1), 0);
        assert_eq!(Tuner::size_class(2), 1);
        assert_eq!(Tuner::size_class(4096), 12);
        assert_eq!(Tuner::size_class(4097), 13);
    }

    #[test]
    fn policy_string_round_trips() {
        for s in ["ring", "multicolor", "multicolor:2", "auto", "auto:ring,halving-doubling"] {
            let p: AlgoPolicy = s.parse().unwrap();
            assert_eq!(p.to_string(), s, "{p:?}");
            let back: AlgoPolicy = p.to_string().parse().unwrap();
            assert_eq!(back, p);
        }
        assert!("auto:".parse::<AlgoPolicy>().is_err());
        assert!("auto:warp-speed".parse::<AlgoPolicy>().is_err());
        assert!("warp-speed".parse::<AlgoPolicy>().is_err());
    }

    #[test]
    fn probe_rotation_is_deterministic_and_covers_candidates() {
        let cfg = TunerConfig::with_candidates(vec![
            AllreduceAlgo::PipelinedRing,
            AllreduceAlgo::HalvingDoubling,
        ]);
        let mut a = Tuner::new(cfg.clone());
        let mut b = Tuner::new(cfg);
        let mut seen = std::collections::BTreeSet::new();
        for epoch in 0..2 {
            for slot in 0..3 {
                let sa = a.select(slot, 4096, 2, true);
                let sb = b.select(slot, 4096, 2, true);
                assert_eq!(sa.candidate, sb.candidate, "epoch {epoch} slot {slot}");
                seen.insert(sa.candidate);
            }
            let spans: Vec<BucketSpan> = (0..3).map(|i| span(i, 4096, 1000)).collect();
            assert_eq!(a.end_epoch(&spans), epoch == 1);
            b.end_epoch(&spans);
        }
        assert_eq!(seen.len(), 2, "both candidates probed");
    }

    #[test]
    fn synthetic_crossover_picks_different_algorithms_per_size() {
        // Candidate 0 (ring) is faster on small buckets, candidate 1
        // (halving-doubling) on large ones — the tuner must split its
        // choices at the crossover.
        let cfg = TunerConfig::with_candidates(vec![
            AllreduceAlgo::PipelinedRing,
            AllreduceAlgo::HalvingDoubling,
        ]);
        let mut t = Tuner::new(cfg);
        let small = Tuner::size_class(1 << 10);
        let large = Tuner::size_class(1 << 20);
        t.apply_agreed(&[
            (small, 0, 1.0),
            (small, 1, 3.0),
            (large, 0, 4.0),
            (large, 1, 2.0),
        ]);
        let s = t.select(0, 1 << 10, 4, false);
        let l = t.select(1, 1 << 20, 4, false);
        assert_eq!(s.candidate, 0);
        assert_eq!(l.candidate, 1);
        assert_eq!(s.handle.name(), "ring");
        assert_eq!(l.handle.name(), "halving-doubling");
        assert_eq!(
            t.decision_table(),
            format!("<={}:ring;<={}:halving-doubling", 1u64 << small, 1u64 << large)
        );
    }

    #[test]
    fn end_epoch_attributes_spans_to_probed_candidates() {
        let cfg = TunerConfig::with_candidates(vec![
            AllreduceAlgo::PipelinedRing,
            AllreduceAlgo::HalvingDoubling,
        ]);
        let mut t = Tuner::new(cfg);
        // Epoch 0: slots 0/1 probe candidates 0/1 on distinct classes.
        t.select(0, 1 << 10, 2, true);
        t.select(1, 1 << 20, 2, true);
        // Spans arrive out of seq order; attribution must sort by seq.
        let needs_agree = t.end_epoch(&[span(1, 1 << 20, 500), span(0, 1 << 10, 100)]);
        assert!(!needs_agree, "probe window (2 epochs) still open");
        let table = t.score_table();
        let c10 = Tuner::size_class(1 << 10);
        let c20 = Tuner::size_class(1 << 20);
        let get = |class, cand| {
            table
                .iter()
                .find(|&&(c, k, _)| c == class && k == cand)
                .map(|&(_, _, s)| s)
                .unwrap()
        };
        assert!((get(c10, 0) - 100.0 / 1024.0).abs() < 1e-12);
        assert!((get(c20, 1) - 500.0 / (1 << 20) as f64).abs() < 1e-12);
        // The unprobed cells fall back to simulated scores — present and
        // finite so the agreed argmin is always well-defined.
        assert!(get(c10, 1).is_finite() && get(c10, 1) > 0.0);
        assert!(get(c20, 0).is_finite() && get(c20, 0) > 0.0);
    }

    #[test]
    fn replay_mode_selects_without_probing_and_matches_across_instances() {
        let cfg = TunerConfig {
            candidates: vec![AllreduceAlgo::MultiColor(4), AllreduceAlgo::RecursiveDoubling],
            probe_epochs: 0,
        };
        let mut a = Tuner::new(cfg.clone());
        let mut b = Tuner::new(cfg);
        for slot in 0..4 {
            let bytes = 1u64 << (10 + slot);
            let sa = a.select(slot as usize, bytes, 4, false);
            let sb = b.select(slot as usize, bytes, 4, false);
            assert_eq!(sa.candidate, sb.candidate, "replay selection must be deterministic");
        }
        assert_ne!(a.decision_table(), "probe");
    }

    #[test]
    fn fixed_policy_is_a_pinned_tuner() {
        // Candidate 0 for every slot, size and epoch, no agreement round,
        // the algorithm's name as the table — and no simulator: replaying
        // these size classes on a 512-rank fat-tree takes minutes, a pinned
        // tuner microseconds.
        let started = std::time::Instant::now();
        let algo = AllreduceAlgo::MultiColor(2);
        let mut t = AlgoPolicy::Fixed(algo).tuner();
        for epoch in 0..3u64 {
            for slot in 0..4usize {
                for class in 10..26u32 {
                    let sel = t.select(slot, 1 << class, 512, slot % 2 == 0);
                    assert_eq!(sel.candidate, 0, "epoch {epoch} slot {slot} class {class}");
                    assert_eq!(sel.handle.name(), algo.name());
                    t.record(&sel, 1 << class, 1000);
                }
            }
            assert!(!t.end_epoch(&[span(epoch, 1 << 12, 1000)]), "epoch {epoch} asked to agree");
            assert_eq!(t.decision_table(), algo.name());
        }
        assert!(!t.agreed() && !t.probing());
        assert!(started.elapsed() < std::time::Duration::from_millis(500), "{:?}", started.elapsed());
    }

    #[test]
    fn measured_model_reseeds_from_spans() {
        let mut t = Tuner::new(TunerConfig::with_candidates(vec![AllreduceAlgo::PipelinedRing]));
        assert_eq!(t.measured_model().reduce_bw, CostModel::PRIOR_REDUCE_BW);
        t.select(0, 1 << 20, 2, true);
        // 1 MiB in 1 ms → 2^20 bytes / 1e-3 s ≈ 1.05 GB/s.
        t.end_epoch(&[span(0, 1 << 20, 1_000_000)]);
        let bw = t.measured_model().reduce_bw;
        assert!((bw - (1u64 << 20) as f64 * 1e3).abs() / bw < 1e-9, "{bw}");
    }

    #[test]
    fn equidistant_class_borrowing_prefers_the_smaller_class() {
        // Agreed classes 10 and 14 pick different candidates; class 12 is
        // exactly 2 away from both. The tie must break to class 10's
        // choice, deterministically.
        let mut choices = BTreeMap::new();
        choices.insert(10u32, 0usize);
        choices.insert(14u32, 1usize);
        assert_eq!(nearest_agreed_class(&choices, 12), Some(0), "smaller class wins ties");
        // Strictly nearer classes still win regardless of the tie-break.
        assert_eq!(nearest_agreed_class(&choices, 13), Some(1));
        assert_eq!(nearest_agreed_class(&choices, 11), Some(0));
        // Outside the agreed range the nearest edge class is borrowed.
        assert_eq!(nearest_agreed_class(&choices, 3), Some(0));
        assert_eq!(nearest_agreed_class(&choices, 30), Some(1));
        assert_eq!(nearest_agreed_class(&BTreeMap::new(), 12), None);
    }

    #[test]
    fn equidistant_borrow_after_replan_agrees_across_ranks() {
        // Four ranks probe with rank-skewed wall times, agree, and then a
        // new bucket size surfaces an unseen class exactly equidistant from
        // the two agreed classes. Every rank must select the same
        // candidate (the fabric deadlocks on the first bucket otherwise)
        // and render the same frozen decision table.
        let runs = run_cluster(4, |comm| {
            let cfg = TunerConfig::with_candidates(vec![
                AllreduceAlgo::PipelinedRing,
                AllreduceAlgo::HalvingDoubling,
            ]);
            let mut t = Tuner::new(cfg);
            // Probe epochs over two size classes (2^10 and 2^14), with
            // per-rank timings skewed so pessimistic agreement matters:
            // ring wins the small class, halving-doubling the large one.
            for epoch in 0..2u64 {
                t.select(0, 1 << 10, 4, true);
                t.select(1, 1 << 14, 4, true);
                let skew = 1 + comm.rank() as u64;
                let (small_ns, large_ns) = if epoch.is_multiple_of(2) {
                    (100 * skew, 90_000 * skew) // ring's epoch
                } else {
                    (900 * skew, 9_000 * skew) // halving-doubling's epoch
                };
                t.close_epoch(comm, &[span(0, 1 << 10, small_ns), span(1, 1 << 14, large_ns)]);
            }
            assert!(t.agreed());
            // A 2^12-byte bucket arrives after the window: class 12 is
            // equidistant from agreed classes 10 and 14.
            let sel = t.select(0, 1 << 12, 4, false);
            (sel.candidate, t.decision_table())
        });
        for r in &runs {
            assert_eq!(*r, runs[0], "ranks diverged on the borrowed choice");
        }
        // The tie broke to the smaller class (10 → ring, candidate 0).
        assert_eq!(runs[0].0, 0, "equidistant borrow must take the smaller class's choice");
    }

    #[test]
    fn agree_scores_merges_to_identical_pessimistic_tables() {
        let runs = run_cluster(3, |comm| {
            // Each rank reports a different score for (10, 0); rank 2 also
            // has an entry nobody else measured.
            let mut local = vec![(10u32, 0u32, 1.0 + comm.rank() as f64)];
            if comm.rank() == 2 {
                local.push((11, 1, 0.5));
            }
            agree_scores(comm, &local)
        });
        for r in &runs {
            assert_eq!(*r, vec![(10, 0, 3.0), (11, 1, 0.5)]);
        }
    }
}
