//! The untraced run: set-up time, then repetitions of the call a user
//! makes — `ClusterBuilder::run(|comm| train_on_comm(..))`, partition load
//! included — timed from outside.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dist_cnn::dimd::{Dimd, SynthImageNet};
use dist_cnn::tensor::Module;
use dist_cnn::trainer::{train_on_comm, EpochStats};

use crate::measure::{process_cpu_secs, Tally};
use crate::workloads::{Workload, RANKS};

/// One set-up as a user pays it before the first step: generator, both
/// ranks' partitions (encode), model build, and an empty cluster run (TCP
/// rendezvous and mesh on the TCP workload). Returns its wall seconds.
pub fn setup_once(w: &Workload) -> f64 {
    let t0 = Instant::now();
    let ds = w.dataset();
    for rank in 0..RANKS {
        black_box(Dimd::load_partition(&ds, rank, RANKS, w.cfg.quality, w.cfg.seed));
    }
    black_box(w.build_model());
    w.cluster().run(|comm| comm.rank());
    t0.elapsed().as_secs_f64()
}

/// What one repetition produced on rank 0.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub stats: Vec<EpochStats>,
}

impl Rep {
    pub fn loss_bits(&self) -> Vec<u64> {
        self.stats.iter().map(|s| s.train_loss.to_bits()).collect()
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => s.to_string(),
            Err(_) => "rank panicked".to_string(),
        },
    }
}

/// Time `body` on a fresh two-rank cluster; a panic on any rank comes back
/// as `Err` (a dead repetition) after every rank thread has been joined.
pub fn timed_cluster<R: Send>(
    w: &Workload,
    body: impl Fn(&dist_cnn::collectives::Comm) -> R + Sync,
) -> Result<(f64, f64, Vec<R>), String> {
    let (t0, cpu0) = (Instant::now(), process_cpu_secs());
    let run = catch_unwind(AssertUnwindSafe(|| w.cluster().run(body))).map_err(panic_text)?;
    Ok((t0.elapsed().as_secs_f64(), process_cpu_secs() - cpu0, run.results))
}

/// One repetition of the real trainer. `factory` gets the rank it builds
/// for, so a traced run can wrap each rank's model.
pub fn train_rep(
    w: &Workload,
    ds: &SynthImageNet,
    factory: &(impl Fn(usize) -> Box<dyn Module> + Sync),
) -> Result<Rep, String> {
    let (wall_s, cpu_s, mut results) = timed_cluster(w, |comm| {
        let rank = comm.rank();
        train_on_comm(comm, &w.cfg, ds, &|| factory(rank))
    })?;
    Ok(Rep { wall_s, cpu_s, stats: results.swap_remove(0) })
}

/// Count one repetition's steps into `tally`: all of them failed if the
/// repetition died, produced a non-finite loss, ended above the workload's
/// loss ceiling, or left the reference trajectory by a single bit.
pub fn judge(
    tally: &mut Tally,
    w: &Workload,
    label: &str,
    losses: Result<&[f64], &str>,
    reference: Option<&[u64]>,
) {
    let verdict = match losses {
        Err(e) => Err(format!("died: {e}")),
        Ok(l) if l.len() != w.cfg.epochs => Err(format!("{} epochs reported", l.len())),
        Ok(l) if l.iter().any(|x| !x.is_finite()) => Err(format!("non-finite loss {l:?}")),
        Ok(l) if l[l.len() - 1] >= w.loss_ceiling => {
            Err(format!("final loss {} over ceiling {}", l[l.len() - 1], w.loss_ceiling))
        }
        Ok(l) => match reference {
            Some(r) if r.iter().zip(l).any(|(a, b)| *a != b.to_bits()) || r.len() != l.len() => {
                Err(format!("losses {l:?} differ bitwise from the reference run"))
            }
            _ => Ok(()),
        },
    };
    tally.count(w.steps_per_rep() as u64, verdict.is_ok(), || {
        format!("{} {label}: {}", w.name, verdict.unwrap_err())
    });
}
