#![warn(missing_docs)]

//! Rendering for the `repro` binary: turns each experiment's typed rows into
//! the markdown tables the paper's figures/tables correspond to, with the
//! paper's reported values alongside where the text states them.

pub mod eval;
pub mod perf;

use dcnn_core::collectives::{AlgoPolicy, AllreduceAlgo};
use dcnn_core::constants::PaperConstants as P;
use dcnn_core::experiments::{self, AccuracyScale};
use dcnn_core::report::{fmt_secs, markdown_table};

/// Render Figure 5.
pub fn render_fig5(extended: bool) -> String {
    let rows = experiments::fig5(16, extended);
    let table = markdown_table(
        &["algorithm", "message MB", "time", "algorithm bandwidth Gbit/s"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.algo.clone(),
                    format!("{:.0}", r.mb),
                    fmt_secs(r.secs),
                    format!("{:.1}", r.gbps),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!(
        "## Figure 5 — MPI Allreduce throughput (16 nodes)\n\n\
         Paper: multi-color outperforms both the ring and default OpenMPI at large sizes.\n\n{table}"
    )
}

/// Render Figure 6.
pub fn render_fig6() -> String {
    let rows = experiments::fig6();
    let table = markdown_table(
        &["nodes", "algorithm", "epoch time"],
        &rows
            .iter()
            .map(|r| vec![r.nodes.to_string(), r.algo.clone(), fmt_secs(r.epoch_secs)])
            .collect::<Vec<_>>(),
    );
    format!(
        "## Figure 6 — GoogLeNet-BN epoch time per allreduce algorithm (93 MB payload)\n\n\
         Paper: multi-color gives the best times and ~90.5% scaling efficiency.\n\n{table}"
    )
}

fn render_shuffle(title: &str, paper_note: &str, rows: &[experiments::ShuffleRow]) -> String {
    let table = markdown_table(
        &["nodes", "groups", "shuffle time", "memory/node GB"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    r.groups.to_string(),
                    fmt_secs(r.shuffle_secs),
                    format!("{:.1}", r.memory_gb),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!("## {title}\n\n{paper_note}\n\n{table}")
}

/// Render Figure 7.
pub fn render_fig7() -> String {
    render_shuffle(
        "Figure 7 — ImageNet-22k shuffle time and memory per node",
        &format!(
            "Paper: shuffle time falls with node count; at 32 learners the full 22k shuffle takes {} s.",
            P::SHUFFLE_22K_32NODES_SECS
        ),
        &experiments::fig7(),
    )
}

/// Render Figure 8.
pub fn render_fig8() -> String {
    render_shuffle(
        "Figure 8 — ImageNet-1k shuffle time and memory per node",
        "Paper: same shape as Figure 7 at ~1/3 the data volume.",
        &experiments::fig8(),
    )
}

/// Render Figure 9.
pub fn render_fig9() -> String {
    render_shuffle(
        "Figure 9 — group-based ImageNet-22k shuffle on 32 nodes",
        "Paper: \"not much improvement with the group based shuffle\" on a symmetric fabric.",
        &experiments::fig9(),
    )
}

fn render_ablation(title: &str, paper_note: &str, rows: &[experiments::AblationRow]) -> String {
    let table = markdown_table(
        &["model", "nodes", "without", "with", "gain %"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.nodes.to_string(),
                    fmt_secs(r.without_secs),
                    fmt_secs(r.with_secs),
                    format!("{:.0}%", r.gain * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!("## {title}\n\n{paper_note}\n\n{table}")
}

/// Render Figure 10.
pub fn render_fig10() -> String {
    render_ablation(
        "Figure 10 — epoch time ± DIMD (ImageNet-1k)",
        "Paper: DIMD improves per-epoch time by ~33% (GoogLeNet-BN) and ~25% (ResNet-50).",
        &experiments::fig10(),
    )
}

/// Render Figure 11.
pub fn render_fig11() -> String {
    render_ablation(
        "Figure 11 — epoch time ± DIMD (ImageNet-22k)",
        "Paper: same experiment on the 7M-image dataset.",
        &experiments::fig11(),
    )
}

/// Render Figure 12.
pub fn render_fig12() -> String {
    render_ablation(
        "Figure 12 — epoch time ± data-parallel-table optimizations",
        "Paper: DPT optimizations improve per-epoch time by 15% (GoogLeNet-BN) / 18% (ResNet-50).",
        &experiments::fig12(),
    )
}

fn render_accuracy(
    title: &str,
    paper_note: &str,
    points: &[dcnn_core::experiments::AccuracyPoint],
) -> String {
    let table = markdown_table(
        &["paper nodes", "epoch", "hours (modelled)", "val top-1", "train error"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.paper_nodes.to_string(),
                    p.epoch.to_string(),
                    format!("{:.3}", p.hours),
                    format!("{:.3}", p.val_acc),
                    format!("{:.3}", p.train_error),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!("## {title}\n\n{paper_note}\n\n{table}")
}

/// Render Figures 13 and 15.
pub fn render_fig13_15(scale: &AccuracyScale) -> String {
    render_accuracy(
        "Figures 13 & 15 — ResNet (scaled) accuracy and training error vs time",
        "Paper: all node counts reach the same accuracy; larger clusters get there in fewer hours. \
         Real distributed runs of the scaled model on SynthImageNet; hours mapped through the \
         epoch-time model at the labelled paper scale.",
        &experiments::fig13_15(scale),
    )
}

/// Render Figures 14 and 16.
pub fn render_fig14_16(scale: &AccuracyScale) -> String {
    render_accuracy(
        "Figures 14 & 16 — GoogLeNet-BN (scaled) accuracy and training error vs time",
        "Paper: as Figures 13/15 for the GoogLeNet-BN workload.",
        &experiments::fig14_16(scale),
    )
}

/// Render Table 1.
pub fn render_table1() -> String {
    let rows = experiments::table1();
    let table = markdown_table(
        &[
            "model",
            "nodes",
            "open-source (ours)",
            "optimized (ours)",
            "speedup (ours)",
            "paper open",
            "paper optimized",
            "paper speedup",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.nodes.to_string(),
                    fmt_secs(r.open_source_secs),
                    fmt_secs(r.optimized_secs),
                    format!("{:.0}%", r.speedup * 100.0),
                    fmt_secs(r.paper_open_secs),
                    fmt_secs(r.paper_opt_secs),
                    format!("{:.0}%", (r.paper_open_secs / r.paper_opt_secs - 1.0) * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!("## Table 1 — total improvement, open source vs fully optimized\n\n{table}")
}

/// Render Table 2.
pub fn render_table2() -> String {
    let rows = experiments::table2();
    let table = markdown_table(
        &["description", "hardware", "batch", "reported", "modelled (ours)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.description.clone(),
                    r.hardware.clone(),
                    r.batch.to_string(),
                    format!("{:.0} min", r.reported_minutes),
                    r.modeled_minutes
                        .map(|m| format!("{m:.0} min"))
                        .unwrap_or_else(|| "—".into()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!("## Table 2 — 90-epoch ResNet-50 wall time vs the state of the art\n\n{table}")
}

/// Render the extension experiments (not in the paper): ablations of the
/// design choices DESIGN.md calls out, plus post-paper techniques built on
/// the same substrate.
pub fn render_extensions() -> String {
    use dcnn_core::collectives::{Allreduce, CostModel, Hierarchical, MultiColor};
    use dcnn_core::gpusim::DeviceModel;
    use dcnn_core::models::{alexnet, resnet50, vgg16};
    use dcnn_core::simnet::{FatTree, SimOptions};
    use dcnn_core::trainer::{EpochTimeModel, OptimizationFlags, Workload};

    let mut s = String::from("## Extensions — ablations and post-paper techniques\n\n");

    // Color-count ablation.
    let rows = experiments::color_ablation(16, 93e6);
    s.push_str("### Multi-color color-count ablation (16 nodes, 93 MB)\n\n");
    s.push_str(&markdown_table(
        &["colors", "time", "Gbit/s"],
        &rows
            .iter()
            .map(|r| vec![r.colors.to_string(), fmt_secs(r.secs), format!("{:.1}", r.gbps)])
            .collect::<Vec<_>>(),
    ));

    // Node-mapping ablation.
    let rows = experiments::mapping_ablation(32, 93e6, 4);
    s.push_str("\n### Rank→node mapping ablation (32 nodes; §4.2's claim)\n\n");
    s.push_str(&markdown_table(
        &["mapping", "time"],
        &rows.iter().map(|r| vec![r.mapping.clone(), fmt_secs(r.secs)]).collect::<Vec<_>>(),
    ));

    // Algorithm extensions on the fabric.
    let topo = FatTree::minsky(32);
    let cost = CostModel::default();
    let opts = SimOptions::default();
    let t = |a: &dyn Allreduce, bytes: f64| {
        fmt_secs(a.schedule(32, bytes, &cost).simulate(&topo, &opts).makespan)
    };
    s.push_str("\n### Post-paper allreduce variants (32 nodes, 102 MB ResNet-50 payload)\n\n");
    s.push_str(&markdown_table(
        &["variant", "time"],
        &[
            vec!["multicolor-4 (paper)".into(), t(&MultiColor::new(4), 102e6)],
            vec!["hierarchical 4-per-group".into(), t(&Hierarchical::new(4, 4), 102e6)],
            // Modelled: half the payload on the wire. `GradSync`'s `fp16`
            // rounds each value to half precision but still sends f32s.
            vec!["fp16 multicolor-4".into(), t(&MultiColor::new(4), 102e6 / 2.0)],
        ],
    ));

    // Layer-wise overlap.
    let m = EpochTimeModel::minsky(32);
    let wl = Workload::imagenet_1k();
    let census = resnet50();
    let flags = OptimizationFlags::fully_optimized();
    let plain = m.epoch(&census, &wl, 64, &flags, Some(102e6));
    let over = m.epoch_with_overlap(&census, &wl, 64, &flags, Some(102e6));
    s.push_str("\n### Layer-wise comm/compute overlap (Goyal-style, ResNet-50, 32 nodes)\n\n");
    s.push_str(&markdown_table(
        &["schedule", "allreduce exposed/epoch", "epoch total"],
        &[
            vec!["sequential (paper)".into(), fmt_secs(plain.allreduce), fmt_secs(plain.total())],
            vec!["overlapped".into(), fmt_secs(over.allreduce), fmt_secs(over.total())],
        ],
    ));

    // Memory feasibility and classic-model throughput.
    let dev = DeviceModel::p100();
    s.push_str("\n### P100 memory feasibility & classic-model throughput\n\n");
    s.push_str(&markdown_table(
        &["model", "params M", "max batch / P100", "img/s / P100 (b=32)"],
        &[resnet50(), alexnet(), vgg16()]
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    format!("{:.1}", c.param_count() as f64 / 1e6),
                    dev.max_batch(c).to_string(),
                    format!("{:.0}", dev.train_throughput(c, 32)),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    s
}

/// One rank's communication counters from a real allreduce run on the
/// threaded runtime (not the virtual-time simulator): what the runtime's
/// tracing/diagnostics layer measures while the collective executes.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CommRow {
    /// Rank within the run.
    pub rank: usize,
    /// Bytes this rank pushed onto the wire.
    pub bytes_sent: u64,
    /// Messages this rank pushed onto the wire.
    pub msgs_sent: u64,
    /// Milliseconds this rank's receives spent blocked.
    pub recv_wait_ms: f64,
    /// Most messages delivered to this rank but not yet received, at once.
    pub stash_hwm: u64,
    /// Milliseconds inside the allreduce phase.
    pub allreduce_ms: f64,
    /// High-water mark of concurrently in-flight async bucket reduces.
    pub async_inflight_hwm: u64,
    /// Milliseconds the rank spent blocked draining bucket handles.
    pub bucket_wait_ms: f64,
    /// Nonblocking bucket reduces this rank completed (one launch-to-done
    /// span each).
    pub bucket_spans: u64,
    /// Average bytes in flight across the rank's bucket-span window —
    /// what a bucket size target actually kept on the wire.
    pub inflight_bytes_avg: u64,
}

/// Run the paper's multi-color allreduce for real across `nodes` rank
/// threads on a `elems`-element buffer — through the trainer's
/// [`GradSync`](dcnn_core::trainer::GradSync) as four buckets drained after
/// backward, the exchange the bucketed trainer runs — and collect per-rank
/// counters (an `auto` policy's include its decision step).
pub fn comm_rows(nodes: usize, elems: usize, policy: &AlgoPolicy) -> Vec<CommRow> {
    use dcnn_core::collectives::ClusterBuilder;
    use dcnn_core::trainer::{cell::payload_segments, GradSync};
    let bucket_bytes = (elems / 4).max(1) * 4;
    let segments = payload_segments(elems, bucket_bytes);
    let run = ClusterBuilder::new(nodes).run(|c| {
        let mut grad = vec![c.rank() as f32 + 1.0; elems];
        let mut sync = GradSync::with_policy(policy.clone(), &segments, bucket_bytes, false);
        sync.decide(c).unwrap_or_else(|e| panic!("{e}"));
        sync.reduce(c, &mut grad);
    });
    run.stats
        .iter()
        .enumerate()
        .map(|(rank, s)| CommRow {
            rank,
            bytes_sent: s.bytes_sent,
            msgs_sent: s.msgs_sent,
            recv_wait_ms: s.recv_wait_ns as f64 / 1e6,
            stash_hwm: s.stash_hwm,
            allreduce_ms: policy.phase_ns(s) as f64 / 1e6,
            async_inflight_hwm: s.async_inflight_hwm,
            bucket_wait_ms: s.bucket_wait_ns as f64 / 1e6,
            bucket_spans: s.async_done,
            inflight_bytes_avg: s.inflight_bytes_avg(),
        })
        .collect()
}

/// Render the `comm` experiment: per-rank runtime counters for a real
/// multi-color allreduce (8 ranks, 256 KiB payload in four async buckets).
pub fn render_comm() -> String {
    let rows = comm_rows(8, 65_536, &AlgoPolicy::Fixed(AllreduceAlgo::MultiColor(4)));
    let table = markdown_table(
        &[
            "rank",
            "bytes sent",
            "msgs",
            "recv wait ms",
            "stash hwm",
            "allreduce ms",
            "inflight hwm",
            "bucket wait ms",
            "spans",
            "inflight B avg",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.rank.to_string(),
                    r.bytes_sent.to_string(),
                    r.msgs_sent.to_string(),
                    format!("{:.2}", r.recv_wait_ms),
                    r.stash_hwm.to_string(),
                    format!("{:.2}", r.allreduce_ms),
                    r.async_inflight_hwm.to_string(),
                    format!("{:.2}", r.bucket_wait_ms),
                    r.bucket_spans.to_string(),
                    r.inflight_bytes_avg.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!(
        "## Comm — runtime counters for a real multi-color allreduce (8 ranks, 256 KiB, 4 async buckets)\n\n\
         Per-rank counters from the threaded runtime's diagnostics layer; the payload travels \
         through the trainer's bucketed exchange, so the in-flight high-water mark, bucket wait \
         and per-bucket launch/done spans (with their windowed average of in-flight bytes) \
         show real overlap. Set DCNN_TRACE=1 \
         for the full per-message event log.\n\n{table}"
    )
}

/// Every experiment name accepted by the harnesses.
pub const ALL_EXPERIMENTS: [&str; 14] = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "table1", "table2", "ext", "comm",
];

/// Serialize one experiment's rows as pretty JSON (for plotting scripts and
/// downstream analysis).
pub fn to_json(name: &str, scale: &AccuracyScale) -> String {
    fn j<T: serde::Serialize>(rows: &T) -> String {
        serde_json::to_string_pretty(rows).expect("rows serialize")
    }
    match name {
        "fig5" => j(&experiments::fig5(16, true)),
        "fig6" => j(&experiments::fig6()),
        "fig7" => j(&experiments::fig7()),
        "fig8" => j(&experiments::fig8()),
        "fig9" => j(&experiments::fig9()),
        "fig10" => j(&experiments::fig10()),
        "fig11" => j(&experiments::fig11()),
        "fig12" => j(&experiments::fig12()),
        "fig13" | "fig15" => j(&experiments::fig13_15(scale)),
        "fig14" | "fig16" => j(&experiments::fig14_16(scale)),
        "table1" => j(&experiments::table1()),
        "table2" => j(&experiments::table2()),
        "ext" => j(&(experiments::color_ablation(16, 93e6), experiments::mapping_ablation(32, 93e6, 4))),
        "comm" => j(&comm_rows(8, 65_536, &AlgoPolicy::Fixed(AllreduceAlgo::MultiColor(4)))),
        other => panic!("unknown experiment {other}; try one of {ALL_EXPERIMENTS:?}"),
    }
}

/// The `comm` table's columns a run's thread timing decides (wall-clock
/// waits, and what happened to be in flight at once): [`check_report`]
/// skips them.
const COMM_TIMED: [&str; 6] = [
    "recv wait ms",
    "stash hwm",
    "allreduce ms",
    "inflight hwm",
    "bucket wait ms",
    "inflight B avg",
];

/// Compare a `repro` report (`file`, e.g. the committed `repro_raw.md`)
/// with `rendered`, each experiment's name and its fresh [`render`], in
/// the report's order. The report's `## ` sections must match them one for
/// one, line for line, blank lines, `_generated in` lines and the `comm`
/// table's timed columns aside. The error names the first section and
/// line that differ.
pub fn check_report(file: &str, rendered: &[(&str, String)]) -> Result<(), String> {
    let mut sections: Vec<Vec<(usize, &str)>> = Vec::new();
    for (n, line) in file.lines().enumerate() {
        if line.starts_with("## ") {
            sections.push(Vec::new());
        }
        if let Some(section) = sections.last_mut() {
            section.push((n + 1, line));
        }
    }
    if let Some(extra) = sections.get(rendered.len()) {
        let (at, title) = extra[0];
        return Err(format!("line {at}: a section `repro` does not print: {title}"));
    }
    for (i, (name, text)) in rendered.iter().enumerate() {
        let title = text.lines().next().unwrap_or_default();
        let Some(section) = sections.get(i) else {
            return Err(format!("section {name} ({title}) is missing"));
        };
        let want = comparable(name, text.lines().map(|l| (0, l)));
        let got = comparable(name, section.iter().copied());
        for k in 0..want.len().max(got.len()) {
            let (at, got_line) = got.get(k).map_or((section[0].0, "(nothing)"), |(n, l)| (*n, l));
            let want_line = want.get(k).map_or("(nothing)", |(_, l)| l);
            if got_line != want_line {
                return Err(format!(
                    "section {name} ({title}), line {at}: the file has\n  {got_line}\nwhere `repro` prints\n  {want_line}"
                ));
            }
        }
    }
    Ok(())
}

/// The lines of one section a check compares: no blank or `_generated in`
/// lines, and in `comm`'s table each [`COMM_TIMED`] cell blanked.
fn comparable<'a>(
    name: &str,
    lines: impl Iterator<Item = (usize, &'a str)>,
) -> Vec<(usize, String)> {
    let mut timed: Option<Vec<usize>> = None;
    lines
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with("_generated in"))
        .map(|(n, l)| {
            if name != "comm" || !l.starts_with('|') {
                return (n, l.to_string());
            }
            let cells: Vec<&str> = l.split('|').collect();
            let timed = timed.get_or_insert_with(|| {
                (0..cells.len()).filter(|&i| COMM_TIMED.contains(&cells[i].trim())).collect()
            });
            let masked: Vec<&str> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| if timed.contains(&i) { " … " } else { c })
                .collect();
            (n, masked.join("|"))
        })
        .collect()
}

/// Render one experiment by name (accuracy figures at the given scale).
pub fn render(name: &str, scale: &AccuracyScale) -> String {
    match name {
        "fig5" => render_fig5(true),
        "fig6" => render_fig6(),
        "fig7" => render_fig7(),
        "fig8" => render_fig8(),
        "fig9" => render_fig9(),
        "fig10" => render_fig10(),
        "fig11" => render_fig11(),
        "fig12" => render_fig12(),
        "fig13" | "fig15" => render_fig13_15(scale),
        "fig14" | "fig16" => render_fig14_16(scale),
        "table1" => render_table1(),
        "table2" => render_table2(),
        "ext" => render_extensions(),
        "comm" => render_comm(),
        other => panic!("unknown experiment {other}; try one of {ALL_EXPERIMENTS:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(sections: &[&str]) -> String {
        let mut s = String::from("# dist-cnn reproduction\n\n");
        for section in sections {
            s.push_str(&format!("{section}\n\n_generated in 1.0s_\n\n"));
        }
        s
    }

    #[test]
    fn a_check_skips_generated_lines_and_comm_timing_and_names_the_first_change() {
        let fig = "## Figure 9 — x\n\nnote\n\n| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |";
        let comm = |wait: &str, bytes: &str| {
            format!("## Comm — y\n\n| rank | bytes sent | recv wait ms |\n|---|---|---|\n| 0 | {bytes} | {wait} |")
        };
        let rendered = [("fig9", fig.to_string()), ("comm", comm("0.25", "64"))];
        assert_eq!(check_report(&report(&[fig, &comm("9.75", "64")]), &rendered), Ok(()));

        let moved = fig.replace("| 3 | 4 |", "| 3 | 5 |");
        let err = check_report(&report(&[&moved, &comm("0.25", "64")]), &rendered).unwrap_err();
        assert!(err.starts_with("section fig9 (## Figure 9 — x), line 10:"), "{err}");
        assert!(err.contains("| 3 | 5 |") && err.contains("| 3 | 4 |"), "{err}");

        let err = check_report(&report(&[fig, &comm("0.25", "65")]), &rendered).unwrap_err();
        assert!(err.starts_with("section comm (## Comm — y), line 18:"), "{err}");

        let err = check_report(&report(&[fig]), &rendered).unwrap_err();
        assert_eq!(err, "section comm (## Comm — y) is missing");
        let err = check_report(&report(&[fig, &comm("0", "64"), fig]), &rendered).unwrap_err();
        assert!(err.ends_with("a section `repro` does not print: ## Figure 9 — x"), "{err}");
        let err = check_report(&report(&[&fig.replace("| 3 | 4 |", "")]), &rendered[..1]);
        assert!(err.unwrap_err().contains("(nothing)\nwhere `repro` prints\n  | 3 | 4 |"));
    }
}
