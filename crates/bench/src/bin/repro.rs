//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro                        # all experiments, full accuracy scale
//! repro quick                  # all experiments, quick accuracy scale
//! repro fig5 fig10             # a subset
//! repro --json results/ ...    # additionally write <name>.json row dumps
//! repro --check repro_raw.md   # exit 1 unless the file is what `repro` prints
//! ```
//!
//! `--check FILE` renders the same experiments (all of them by default)
//! and compares FILE with them section by section, skipping the
//! `_generated in` lines and the `comm` table's timed columns; it names the
//! first section and line that differ.

use dcnn_bench::{check_report, render, to_json, ALL_EXPERIMENTS};
use dcnn_core::experiments::AccuracyScale;

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut quick, mut json_dir, mut check, mut wanted) = (false, None, None, Vec::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "quick" => quick = true,
            "--json" => json_dir = Some(args.next().expect("--json needs a directory")),
            "--check" => check = Some(args.next().expect("--check needs a file")),
            _ => wanted.push(arg),
        }
    }
    let scale = if quick { AccuracyScale::quick() } else { AccuracyScale::full() };
    let list: Vec<&str> = if wanted.is_empty() {
        ALL_EXPERIMENTS.to_vec()
    } else {
        wanted.iter().map(String::as_str).collect()
    };

    if let Some(path) = check {
        let file = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let rendered: Vec<_> = list.iter().map(|&name| (name, render(name, &scale))).collect();
        if let Err(e) = check_report(&file, &rendered) {
            eprintln!("repro --check {path}: {e}");
            std::process::exit(1);
        }
        println!("repro --check {path}: {} sections match", rendered.len());
        return;
    }

    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
    }
    println!("# dist-cnn reproduction — Kumar et al., CLUSTER 2018\n");
    for name in list {
        let t0 = std::time::Instant::now();
        let section = render(name, &scale);
        println!("{section}");
        if let Some(dir) = &json_dir {
            let path = std::path::Path::new(dir).join(format!("{name}.json"));
            std::fs::write(&path, to_json(name, &scale)).expect("write json");
            println!("_rows written to {}_", path.display());
        }
        println!("_generated in {:.1}s_\n", t0.elapsed().as_secs_f64());
    }
}
