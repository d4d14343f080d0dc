//! `repro` — regenerate every table and figure of the paper's evaluation
//! (§5), on the synthetic stand-in instances.
//!
//! ```text
//! repro [--scale tiny|small|medium] [--queries N] <command>
//!
//! commands:
//!   fig4      instance statistics tables (paper Figure 4) + the §5.1
//!             keyword-extension growth statistic
//!   fig5      median query times on I1, S3k γ∈{1.25,1.5,2} vs TopkS
//!             α∈{0.25,0.5,0.75}, 8 workloads (paper Figure 5)
//!   fig6      the same on I3/Yelp (paper Figure 6)
//!   fig_i2    the same on I2/Vodkaster (§5.3 "results on the smaller
//!             instance I2 are similar")
//!   fig7      min/Q1/median/Q3/max times on I1 varying k∈{1,5,10,50},
//!             γ∈{1.5,4} (paper Figure 7)
//!   fig8      qualitative S3k-vs-TopkS measures on I1/I2/I3
//!             (paper Figure 8)
//!   anytime   answer quality vs iteration cap (§4.1 any-time termination)
//!   ablation  component-pruning on/off and eager-vs-no semantic expansion
//!   all       everything above
//! ```

use s3_bench::{compare_runs, run_s3k_workload, run_topks_workload, Table};
use s3_core::{S3Instance, S3kEngine, SearchConfig};
use s3_datasets::{twitter, vodkaster, workload, yelp, Scale};
use s3_topks::{uit_from_s3, TopkSConfig, TopkSEngine};
use std::time::Duration;

#[derive(Debug, Clone, Copy)]
struct Options {
    scale: Scale,
    queries: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut queries = 30usize;
    let mut command = String::from("all");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("medium") => Scale::Medium,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--queries" => {
                i += 1;
                queries = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--queries needs a number");
                    std::process::exit(2);
                });
            }
            c => command = c.to_string(),
        }
        i += 1;
    }
    let opt = Options { scale, queries };
    println!("== S3 reproduction harness (scale {:?}, {} queries/workload) ==\n", scale, queries);
    match command.as_str() {
        "fig4" => fig4(opt),
        "fig5" => fig5(opt),
        "fig6" => fig6(opt),
        "fig_i2" => fig_i2(opt),
        "fig7" => fig7(opt),
        "fig8" => fig8(opt),
        "anytime" => anytime(opt),
        "ablation" => ablation(opt),
        "all" => {
            fig4(opt);
            fig5(opt);
            fig6(opt);
            fig_i2(opt);
            fig7(opt);
            fig8(opt);
            anytime(opt);
            ablation(opt);
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

fn build_i1(opt: Options) -> twitter::TwitterDataset {
    twitter::generate(&twitter::TwitterConfig::scaled(opt.scale))
}

fn build_i2(opt: Options) -> vodkaster::VodkasterDataset {
    vodkaster::generate(&vodkaster::VodkasterConfig::scaled(opt.scale))
}

fn build_i3(opt: Options) -> yelp::YelpDataset {
    yelp::generate(&yelp::YelpConfig::scaled(opt.scale))
}

// ---------------------------------------------------------------- fig4 --

fn fig4(opt: Options) {
    println!("-- Figure 4: instance statistics --\n");
    let i1 = build_i1(opt);
    let i2 = build_i2(opt);
    let i3 = build_i3(opt);

    let mut t = Table::new(&["statistic", "I1 (Twitter)", "I2 (Vodkaster)", "I3 (Yelp)"]);
    let s = [i1.instance.stats(), i2.instance.stats(), i3.instance.stats()];
    let row = |name: &str, f: &dyn Fn(&s3_core::InstanceStats) -> String| {
        vec![name.to_string(), f(&s[0]), f(&s[1]), f(&s[2])]
    };
    t.row(row("users", &|x| x.users.to_string()));
    t.row(row("S3:social edges", &|x| x.social_edges.to_string()));
    t.row(row("documents", &|x| x.documents.to_string()));
    t.row(row("fragments (non-root)", &|x| x.fragments_non_root.to_string()));
    t.row(row("tags", &|x| x.tags.to_string()));
    t.row(row("keyword occurrences", &|x| x.keywords.to_string()));
    t.row(row("distinct keywords", &|x| x.distinct_keywords.to_string()));
    t.row(row("graph nodes", &|x| x.nodes.to_string()));
    t.row(row("graph edges", &|x| x.edges.to_string()));
    t.row(row("con(d,k) tuples", &|x| x.connections.to_string()));
    println!("{}", t.render());

    let mut t2 = Table::new(&["I1 tweet statistic", "value"]);
    t2.row(vec!["tweets".into(), i1.meta.tweets.to_string()]);
    t2.row(vec![
        "retweets".into(),
        format!(
            "{} ({:.0}%)",
            i1.meta.retweets,
            100.0 * i1.meta.retweets as f64 / i1.meta.tweets as f64
        ),
    ]);
    t2.row(vec![
        "replies".into(),
        format!(
            "{} ({:.1}% of tweets)",
            i1.meta.replies,
            100.0 * i1.meta.replies as f64 / i1.meta.tweets.max(1) as f64
        ),
    ]);
    println!("{}", t2.render());

    // §5.1: semantic extension grew workload queries by ~50%.
    for (name, inst) in [("I1", &i1.instance), ("I3", &i3.instance)] {
        let ws = workload::paper_workloads(inst, opt.queries);
        let growth = workload::extension_growth(inst, &ws);
        println!("{name}: keyword extension grows queries by {:.0}% (paper: ~50%)", growth * 100.0);
    }
    println!();
}

// ---------------------------------------------------------- fig5 / fig6 --

fn runtime_figure(name: &str, instance: &S3Instance, opt: Options) {
    println!("-- {name}: median query time (ms) per workload --\n");
    let workloads = workload::paper_workloads(instance, opt.queries);
    let adaptation = uit_from_s3(instance);

    let gammas = [1.25, 1.5, 2.0];
    let alphas = [0.75, 0.5, 0.25];
    let mut header: Vec<String> = vec!["workload".into()];
    header.extend(gammas.iter().map(|g| format!("S3k γ={g}")));
    header.extend(alphas.iter().map(|a| format!("TopkS α={a}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    let engines: Vec<S3kEngine<'_>> =
        gammas.iter().map(|&g| S3kEngine::new(instance, s3_bench::runner::s3k_config(g))).collect();

    for w in &workloads {
        let mut cells = vec![w.label.clone()];
        for engine in &engines {
            let (times, _) = run_s3k_workload(engine, w);
            cells.push(ms(times.summary().median));
        }
        for &alpha in &alphas {
            let (times, _) =
                run_topks_workload(&adaptation, TopkSConfig { alpha, epsilon: 1e-9 }, w);
            cells.push(ms(times.summary().median));
        }
        t.row(cells);
    }
    println!("{}", t.render());
    println!(
        "(paper shape: TopkS consistently faster; γ drives cost (stronger damping, larger γ,\n converges earlier — the attenuation bound M_n/γ^(n+1) shrinks faster);\n rare-keyword workloads (−) faster than common (+))\n"
    );
}

fn fig5(opt: Options) {
    let ds = build_i1(opt);
    runtime_figure("Figure 5 (I1 / Twitter)", &ds.instance, opt);
}

fn fig6(opt: Options) {
    let ds = build_i3(opt);
    runtime_figure("Figure 6 (I3 / Yelp)", &ds.instance, opt);
}

fn fig_i2(opt: Options) {
    let ds = build_i2(opt);
    runtime_figure("I2 runtimes (Vodkaster; §5.3 'similar')", &ds.instance, opt);
}

// ---------------------------------------------------------------- fig7 --

fn fig7(opt: Options) {
    println!("-- Figure 7: I1 runtime quartiles varying k (ms) --\n");
    let ds = build_i1(opt);
    let instance = &ds.instance;
    let workloads = workload::figure7_workloads(instance, opt.queries);
    let mut t = Table::new(&["workload", "γ", "min", "Q1", "median", "Q3", "max"]);
    for &gamma in &[1.5, 4.0] {
        let engine = S3kEngine::new(instance, s3_bench::runner::s3k_config(gamma));
        for w in &workloads {
            let (times, _) = run_s3k_workload(&engine, w);
            let s = times.summary();
            t.row(vec![
                w.label.clone(),
                format!("{gamma}"),
                ms(s.min),
                ms(s.q1),
                ms(s.median),
                ms(s.q3),
                ms(s.max),
            ]);
        }
    }
    println!("{}", t.render());
    println!("(paper shape: with frequent keywords (+) larger k slows the slowest quartile;\n rare keywords (−) run faster overall)\n");
}

// ---------------------------------------------------------------- fig8 --

fn fig8(opt: Options) {
    println!("-- Figure 8: S3k vs TopkS qualitative measures --\n");
    let i1 = build_i1(opt);
    let i2 = build_i2(opt);
    let i3 = build_i3(opt);
    let mut t = Table::new(&["measure", "I1", "I2", "I3"]);
    let mut rows: Vec<[f64; 3]> = vec![[0.0; 3]; 4];
    for (col, inst) in [&i1.instance, &i2.instance, &i3.instance].into_iter().enumerate() {
        let adaptation = uit_from_s3(inst);
        let cfg = s3_bench::runner::s3k_config(1.5);
        let ws = workload::paper_workloads(inst, opt.queries);
        let mut acc = s3_bench::metrics::QualAccumulator::default();
        let engine = S3kEngine::new(inst, cfg.clone());
        let topks_engine =
            TopkSEngine::new(&adaptation.uit, TopkSConfig { alpha: 0.5, epsilon: 1e-9 });
        for w in &ws {
            let (_, s3k_results) = run_s3k_workload(&engine, w);
            let topks_results: Vec<_> = w
                .queries
                .iter()
                .map(|q| topks_engine.run(q.query.seeker, &q.query.keywords, q.query.k))
                .collect();
            acc.merge(&compare_runs(inst, &adaptation, w, &s3k_results, &topks_results, &cfg));
        }
        let m = acc.finish();
        rows[0][col] = m.graph_reachability * 100.0;
        rows[1][col] = m.semantic_reachability * 100.0;
        rows[2][col] = m.l1 * 100.0;
        rows[3][col] = m.intersection * 100.0;
    }
    for (name, row) in [
        "graph reachability (% of S3k answers TopkS cannot reach)",
        "semantic reachability (candidates w/o ext ÷ with ext, %)",
        "L1 (normalized foot-rule distance, %)",
        "intersection size (%)",
    ]
    .iter()
    .zip(&rows)
    {
        t.row(vec![
            name.to_string(),
            format!("{:.1}", row[0]),
            format!("{:.1}", row[1]),
            format!("{:.1}", row[2]),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: graph reach. 12/23/41%, semantic reach. 83/100/78%, L1 8/10/4%, intersection 13.7/18.4/5.6%)\n");
}

// -------------------------------------------------------------- anytime --

fn anytime(opt: Options) {
    println!("-- §4.1 any-time termination: answer quality vs iteration cap --\n");
    let ds = build_i1(opt);
    let instance = &ds.instance;
    let w = workload::generate(
        instance,
        workload::WorkloadConfig {
            frequency: s3_text::FrequencyClass::Common,
            keywords_per_query: 1,
            k: 10,
            queries: opt.queries,
            seed: 13,
        },
    );
    // Ground truth: the converged answers.
    let full_engine = S3kEngine::new(instance, s3_bench::runner::s3k_config(1.5));
    let truth: Vec<Vec<_>> = w
        .queries
        .iter()
        .map(|q| full_engine.run(&q.query).hits.iter().map(|h| h.doc).collect())
        .collect();

    let mut t = Table::new(&[
        "iteration cap",
        "median (ms)",
        "avg recall vs converged",
        "avg certified regret",
    ]);
    for cap in [1u32, 2, 4, 8, 16] {
        let cfg = SearchConfig { max_iterations: cap, ..s3_bench::runner::s3k_config(1.5) };
        let engine = S3kEngine::new(instance, cfg);
        let (times, results) = run_s3k_workload(&engine, &w);
        let mut recall_sum = 0.0;
        let mut regret_sum = 0.0;
        let mut counted = 0usize;
        for (res, exact) in results.iter().zip(&truth) {
            regret_sum += res.stats.quality.regret;
            if exact.is_empty() {
                continue;
            }
            let got: std::collections::HashSet<_> = res.hits.iter().map(|h| h.doc).collect();
            recall_sum +=
                exact.iter().filter(|d| got.contains(d)).count() as f64 / exact.len() as f64;
            counted += 1;
        }
        let recall = if counted == 0 { 1.0 } else { recall_sum / counted as f64 };
        let regret = regret_sum / results.len().max(1) as f64;
        t.row(vec![
            cap.to_string(),
            ms(times.summary().median),
            format!("{:.1}%", recall * 100.0),
            format!("{regret:.4}"),
        ]);
    }
    println!("{}", t.render());
    println!("(any-time mode trades exploration for latency; recall climbs to 100% and the\n certified regret bound — how much better anything outside the answer could\n still be — falls to 0 well before the threshold-based stop triggers)\n");
}

// ------------------------------------------------------------- ablation --

fn ablation(opt: Options) {
    println!("-- Ablations: component pruning and semantic expansion --\n");
    let ds = build_i1(opt);
    let instance = &ds.instance;
    let w = workload::generate(
        instance,
        workload::WorkloadConfig {
            frequency: s3_text::FrequencyClass::Common,
            keywords_per_query: 1,
            k: 10,
            queries: opt.queries,
            seed: 99,
        },
    );
    let mut t = Table::new(&["configuration", "median (ms)", "mean candidates"]);
    for (name, cfg) in [
        ("baseline (pruning on, expansion on)", s3_bench::runner::s3k_config(1.5)),
        (
            "component pruning OFF",
            SearchConfig { component_pruning: false, ..s3_bench::runner::s3k_config(1.5) },
        ),
        (
            "semantic expansion OFF",
            SearchConfig { semantic_expansion: false, ..s3_bench::runner::s3k_config(1.5) },
        ),
    ] {
        let engine = S3kEngine::new(instance, cfg);
        let (times, results) = run_s3k_workload(&engine, &w);
        let cand: f64 = results.iter().map(|r| r.stats.candidates as f64).sum::<f64>()
            / results.len().max(1) as f64;
        t.row(vec![name.to_string(), ms(times.summary().median), format!("{cand:.1}")]);
    }
    println!("{}", t.render());

    // γ sweep (Figure 5's knob, isolated).
    let mut t2 = Table::new(&["γ", "median (ms)", "mean iterations"]);
    for gamma in [1.25, 1.5, 2.0, 4.0] {
        let engine = S3kEngine::new(instance, s3_bench::runner::s3k_config(gamma));
        let (times, results) = run_s3k_workload(&engine, &w);
        let iters: f64 = results.iter().map(|r| r.stats.iterations as f64).sum::<f64>()
            / results.len().max(1) as f64;
        t2.row(vec![format!("{gamma}"), ms(times.summary().median), format!("{iters:.1}")]);
    }
    println!("{}", t2.render());
    println!("(larger γ damps long paths harder ⇒ earlier termination)\n");
}
