//! Collective selection per bucket size.
//!
//! The paper's Figure 5/6 point is that no single allreduce wins at every
//! message size — the multicolor/ring/recursive-doubling curves cross. An
//! [`AlgoPolicy`] turns that observation into a choice per power-of-two
//! size class of a bucket plan ([`size_class`]): `Fixed` runs its one
//! algorithm everywhere, and `Auto` measures its candidates once, before
//! the first training step, and keeps the fastest per class.
//!
//! That measurement is one collective step, [`AlgoPolicy::decide`]. Per
//! size class and per candidate in list order, every rank passes a
//! barrier, runs one warm-up and [`TIMED_EXCHANGES`] timed exchanges, and
//! scores the candidate by their median. The wall times differ on every
//! rank, so no rank trusts its own: one allgather merges the score tables
//! entry-wise by max (pessimistic agreement: the worst rank wins), and
//! every rank takes the per-class argmin of the *identical* merged table,
//! ties to the earlier candidate. Agreement matters because nonblocking
//! collectives derive their sub-communicator from the launch seq — ranks
//! that disagree on an algorithm for one seq deadlock or corrupt the sum.

use std::collections::BTreeMap;
use std::str::FromStr;
use std::time::Instant;

use crate::algorithms::AllreduceAlgo;
use crate::primitives::try_allgather_bytes;
use crate::runtime::{Comm, CommError, CommStats};

/// Timed exchanges per (size class, candidate) in [`AlgoPolicy::decide`],
/// after one untimed warm-up.
pub const TIMED_EXCHANGES: usize = 5;

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
    /// Per size class, the fastest of these candidates (never empty) as
    /// measured by [`AlgoPolicy::decide`]. With one candidate every bucket
    /// runs it, bitwise identical to `Fixed` of it.
    Auto(Vec<AllreduceAlgo>),
}

impl From<AllreduceAlgo> for AlgoPolicy {
    fn from(algo: AllreduceAlgo) -> Self {
        AlgoPolicy::Fixed(algo)
    }
}

/// `Fixed` renders as the algorithm ([`AllreduceAlgo::Display`]); `Auto`
/// renders as `auto` (all algorithms) or `auto:<c1>,<c2>,...`.
impl std::fmt::Display for AlgoPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoPolicy::Fixed(a) => write!(f, "{a}"),
            AlgoPolicy::Auto(c) if *c == AllreduceAlgo::all() => f.write_str("auto"),
            AlgoPolicy::Auto(c) => {
                f.write_str("auto:")?;
                for (i, a) in c.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
        }
    }
}

/// Accepts any [`AllreduceAlgo`] string (→ `Fixed`), `auto` (→ `Auto` over
/// every algorithm), or `auto:<c1>,<c2>,...` (→ `Auto` over the listed
/// candidates).
impl FromStr for AlgoPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "auto" {
            return Ok(AlgoPolicy::Auto(AllreduceAlgo::all()));
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
            return Ok(AlgoPolicy::Auto(candidates));
        }
        AllreduceAlgo::from_str(s).map(AlgoPolicy::Fixed)
    }
}

impl AlgoPolicy {
    /// The algorithms this policy chooses between (one for `Fixed`).
    pub fn candidates(&self) -> &[AllreduceAlgo] {
        match self {
            AlgoPolicy::Fixed(a) => std::slice::from_ref(a),
            AlgoPolicy::Auto(c) => c,
        }
    }

    /// Total nanoseconds `stats` attributes to the candidates' allreduce
    /// phases (two parameterizations of one algorithm share a phase label,
    /// so labels are deduplicated before summing).
    pub fn phase_ns(&self, stats: &CommStats) -> u64 {
        let names: std::collections::BTreeSet<&'static str> =
            self.candidates().iter().map(|c| c.name()).collect();
        names.iter().map(|n| stats.phase(n)).sum()
    }

    /// The decision over `classes` when there is nothing to measure:
    /// `Fixed`, or `Auto` with a single candidate. `None` when the
    /// candidates must be measured by [`AlgoPolicy::decide`].
    pub fn settled(&self, classes: impl IntoIterator<Item = u32>) -> Option<Decision> {
        match self {
            AlgoPolicy::Fixed(a) => Some(Decision::Fixed(*a)),
            AlgoPolicy::Auto(c) => match c.as_slice() {
                [only] => Some(Decision::Table(classes.into_iter().map(|k| (k, *only)).collect())),
                _ => None,
            },
        }
    }

    /// Decide the algorithm for every size class in `classes`. A
    /// [`settled`](AlgoPolicy::settled) policy returns at once, without
    /// measuring or communicating. Otherwise this is **collective**: per
    /// class and per candidate in list order, `prepare(class, algo)` builds
    /// one exchange of that class's bucket with `algo`, every rank passes a
    /// barrier, and the exchange runs once untimed and
    /// [`TIMED_EXCHANGES`] times timed; then one allgather agrees the
    /// scores (see the module docs). Every rank must pass the same
    /// `classes` and prepare the same collective.
    ///
    /// # Panics
    /// If an `Auto` policy has no candidates.
    pub fn decide<X>(
        &self,
        comm: &Comm,
        classes: &[u32],
        mut prepare: impl FnMut(u32, AllreduceAlgo) -> X,
    ) -> Result<Decision, CommError>
    where
        X: FnMut() -> Result<(), CommError>,
    {
        if let Some(d) = self.settled(classes.iter().copied()) {
            return Ok(d);
        }
        let candidates = self.candidates();
        assert!(!candidates.is_empty(), "an auto policy needs at least one candidate");
        let mut local = Vec::with_capacity(classes.len() * candidates.len());
        for &class in classes {
            for (i, &algo) in candidates.iter().enumerate() {
                let mut exchange = prepare(class, algo);
                comm.try_barrier()?;
                exchange()?;
                let mut ns = [0u64; TIMED_EXCHANGES];
                for t in &mut ns {
                    let start = Instant::now();
                    exchange()?;
                    *t = start.elapsed().as_nanos() as u64;
                }
                ns.sort_unstable();
                local.push((class, i as u32, ns[TIMED_EXCHANGES / 2] as f64));
            }
        }
        Ok(pick(candidates, &agree_scores(comm, &local)?))
    }
}

/// The power-of-two size class of a `bytes`-byte bucket: the smallest `c`
/// with `bytes ≤ 1 << c`.
pub fn size_class(bytes: u64) -> u32 {
    bytes.max(1).next_power_of_two().trailing_zeros()
}

/// A policy's algorithm per bucket, identical on every rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// One algorithm for every bucket (a `Fixed` policy).
    Fixed(AllreduceAlgo),
    /// The algorithm per size class of the plan it was decided for.
    Table(BTreeMap<u32, AllreduceAlgo>),
}

impl Decision {
    /// The algorithm for a bucket of `bytes` bytes.
    ///
    /// # Panics
    /// If a table has no entry for the bucket's size class (the bucket is
    /// not from the plan the table was decided for).
    pub fn algo(&self, bytes: u64) -> AllreduceAlgo {
        match self {
            Decision::Fixed(a) => *a,
            Decision::Table(t) => *t
                .get(&size_class(bytes))
                .unwrap_or_else(|| panic!("no algorithm decided for a {bytes}-byte bucket")),
        }
    }
}

/// `Fixed` renders as the algorithm's name; a table as `<=BYTES:algo`
/// entries joined by `;` (comma-free, so it embeds in a CSV field).
impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Decision::Fixed(a) => f.write_str(a.name()),
            Decision::Table(t) => {
                for (i, (class, algo)) in t.iter().enumerate() {
                    if i > 0 {
                        f.write_str(";")?;
                    }
                    write!(f, "<={}:{algo}", 1u64 << class)?;
                }
                Ok(())
            }
        }
    }
}

/// The per-class argmin of an agreed `(class, candidate index, score)`
/// table sorted by class then candidate, so ties go to the earlier
/// candidate.
fn pick(candidates: &[AllreduceAlgo], merged: &[(u32, u32, f64)]) -> Decision {
    let mut best: BTreeMap<u32, (u32, f64)> = BTreeMap::new();
    for &(class, cand, score) in merged {
        let e = best.entry(class).or_insert((cand, score));
        if score < e.1 {
            *e = (cand, score);
        }
    }
    Decision::Table(best.into_iter().map(|(c, (k, _))| (c, candidates[k as usize])).collect())
}

/// Cluster-agree a score table: allgather every rank's entries and merge
/// them entry-wise with **max** (the pessimistic union — an algorithm is
/// only as fast as its slowest rank says). Every rank returns the same
/// merged table, sorted by `(class, candidate)`. Entries present on one
/// rank but not another survive with the values they have.
///
/// Collective: every rank must call this at the same point.
fn agree_scores(
    comm: &Comm,
    local: &[(u32, u32, f64)],
) -> Result<Vec<(u32, u32, f64)>, CommError> {
    let mut mine = Vec::with_capacity(local.len() * 16);
    for &(class, cand, score) in local {
        mine.extend_from_slice(&class.to_le_bytes());
        mine.extend_from_slice(&cand.to_le_bytes());
        mine.extend_from_slice(&score.to_le_bytes());
    }
    let mut merged: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for theirs in try_allgather_bytes(comm, mine)? {
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
    Ok(merged.into_iter().map(|((class, cand), score)| (class, cand, score)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_cluster;

    #[test]
    fn size_classes_are_ceil_pow2() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(4096), 12);
        assert_eq!(size_class(4097), 13);
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
    fn synthetic_crossover_picks_different_algorithms_per_size() {
        // Candidate 0 (ring) is faster on small buckets, candidate 1
        // (halving-doubling) on large ones — the decision must split its
        // choices at the crossover.
        let candidates = [AllreduceAlgo::PipelinedRing, AllreduceAlgo::HalvingDoubling];
        let small = size_class(1 << 10);
        let large = size_class(1 << 20);
        let d = pick(
            &candidates,
            &[(small, 0, 1.0), (small, 1, 3.0), (large, 0, 4.0), (large, 1, 2.0)],
        );
        assert_eq!(d.algo(1 << 10), AllreduceAlgo::PipelinedRing);
        assert_eq!(d.algo(1 << 20), AllreduceAlgo::HalvingDoubling);
        assert_eq!(d.algo(1 << 10).build().name(), "ring");
        assert_eq!(d.algo(1 << 20).build().name(), "halving-doubling");
        assert_eq!(
            d.to_string(),
            format!("<={}:ring;<={}:halving-doubling", 1u64 << small, 1u64 << large)
        );
        // Equal scores go to the earlier candidate.
        let tie = pick(&candidates, &[(small, 0, 2.0), (small, 1, 2.0)]);
        assert_eq!(tie.algo(1 << 10), AllreduceAlgo::PipelinedRing);
    }

    #[test]
    fn fixed_policy_is_a_pinned_tuner() {
        // The one algorithm for every size, its name as the table, and
        // nothing measured or sent: `decide` never prepares an exchange
        // and no agreement round runs, so it takes microseconds whatever
        // the class span. Single-candidate `auto` decides the same way but
        // renders its table.
        let started = std::time::Instant::now();
        let algo = AllreduceAlgo::MultiColor(2);
        let classes: Vec<u32> = (10..26).collect();
        let runs = run_cluster(2, move |comm| {
            let decide = |policy: AlgoPolicy| {
                policy
                    .decide(comm, &classes, |_, _| -> fn() -> Result<(), CommError> {
                        panic!("a settled policy measured")
                    })
                    .expect("no peer dies")
            };
            (decide(AlgoPolicy::Fixed(algo)), decide(AlgoPolicy::Auto(vec![algo])), comm.stats())
        });
        for (fixed, single, stats) in runs {
            for class in 10..26u32 {
                assert_eq!(fixed.algo(1 << class), algo, "class {class}");
                assert_eq!(single.algo(1 << class), algo, "class {class}");
            }
            assert_eq!(fixed.to_string(), algo.name());
            assert!(single.to_string().starts_with("<=1024:multicolor:2;"), "{single}");
            assert_eq!((stats.bytes_sent, stats.msgs_sent), (0, 0));
        }
        assert!(started.elapsed() < std::time::Duration::from_millis(500), "{:?}", started.elapsed());
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
            agree_scores(comm, &local).expect("no peer dies")
        });
        for r in &runs {
            assert_eq!(*r, vec![(10, 0, 3.0), (11, 1, 0.5)]);
        }
    }
}
