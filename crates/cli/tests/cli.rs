//! End-to-end CLI tests: spawn the built binary and check its behaviour.

use std::process::Command;

fn looseloops(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_looseloops"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_prints_usage() {
    let out = looseloops(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("figure"));
}

#[test]
fn list_names_everything() {
    let out = looseloops(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["compress", "turb3d", "apsi-swim"] {
        assert!(text.contains(name), "missing {name}");
    }
    let figures = text
        .lines()
        .find_map(|l| l.strip_prefix("figures: "))
        .expect("figures line");
    assert_eq!(
        figures.split(' ').collect::<Vec<_>>(),
        looseloops::FigureSpec::IDS,
        "`list` names every registry figure"
    );
}

#[test]
fn run_bench_reports_stats() {
    let out = looseloops(&[
        "run",
        "--bench",
        "m88ksim",
        "--warmup",
        "1000",
        "--measure",
        "5000",
        "--verify",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IPC"));
    assert!(text.contains("operand sources"));
}

#[test]
fn run_json_is_parseable_shape() {
    let out = looseloops(&[
        "run",
        "--bench",
        "go",
        "--warmup",
        "500",
        "--measure",
        "3000",
        "--json",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with('{') && text.trim_end().ends_with('}'));
    assert!(text.contains("\"ipc\""));
}

#[test]
fn asm_assembles_runs_and_disassembles() {
    let dir = std::env::temp_dir();
    let path = dir.join("looseloops_cli_test.s");
    std::fs::write(
        &path,
        "addi r1, r31, 3\ntop:\nsubi r1, r1, 1\nbne r1, top\nhalt\n",
    )
    .unwrap();
    let out = looseloops(&["asm", path.to_str().unwrap(), "--run", "--disasm"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("halted: true"));
    assert!(text.contains("subi r1, r1, 1"));
}

#[test]
fn figure_smoke_runs() {
    let out = looseloops(&["figure", "fig6", "--smoke"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("fig6"));
}

#[test]
fn figure_rejects_machine_config_flags() {
    // A figure's machines are its own grid: a config flag would be
    // silently ignored, so it is an error instead.
    let out = looseloops(&["figure", "fig6", "--smoke", "--audit"]);
    assert!(!out.status.success(), "--audit must not be accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --audit"), "{err}");
    assert!(out.stdout.is_empty(), "nothing simulated");
}

#[test]
fn loops_inventory_prints() {
    let out = looseloops(&["loops", "--scheme", "dra", "--rf", "7"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("operand resolution"));
    assert!(text.contains("load resolution"));
}

#[test]
fn errors_exit_nonzero_with_message() {
    let out = looseloops(&["run"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bench"));

    let out = looseloops(&["run", "--bench", "nonesuch"]);
    assert!(!out.status.success());

    let out = looseloops(&["frobnicate"]);
    assert!(!out.status.success());

    let out = looseloops(&["run", "--bnech", "go"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn trace_file_is_written() {
    let path = std::env::temp_dir().join("looseloops_cli_trace.kanata");
    let _ = std::fs::remove_file(&path);
    let out = looseloops(&[
        "run",
        "--bench",
        "go",
        "--warmup",
        "200",
        "--measure",
        "1500",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = std::fs::read_to_string(&path).unwrap();
    assert!(log.starts_with("Kanata\t0004"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn figure_store_dir_makes_the_second_run_simulation_free() {
    let dir = std::env::temp_dir().join(format!("looseloops-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "figure",
        "fig6",
        "--smoke",
        "--jobs",
        "2",
        "--store-dir",
        dir.to_str().unwrap(),
    ];

    let cold = looseloops(&args);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let warm = looseloops(&args);
    assert!(warm.status.success());

    assert_eq!(
        cold.stdout, warm.stdout,
        "store-served figures must be byte-identical"
    );
    let warm_log = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_log.contains("0 jobs run"),
        "warm store must simulate nothing: {warm_log}"
    );
    assert!(warm_log.contains("store hits"), "{warm_log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_submit_round_trip_a_figure() {
    use std::io::BufRead;

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_looseloops"))
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let mut first_line = String::new();
    std::io::BufReader::new(daemon.stdout.take().expect("daemon stdout"))
        .read_line(&mut first_line)
        .expect("daemon announces its address");
    let addr = first_line
        .trim()
        .strip_prefix("listening on ")
        .expect("announce line")
        .to_string();

    // Rendered through --table, the streamed figure must be
    // byte-identical to the same figure generated locally.
    let budget = ["--warmup", "500", "--measure", "3000"];
    let mut submit_args = vec!["submit", "fig6", "--addr", &addr, "--table"];
    submit_args.extend_from_slice(&budget);
    let remote = looseloops(&submit_args);
    assert!(
        remote.status.success(),
        "{}",
        String::from_utf8_lossy(&remote.stderr)
    );
    let mut local_args = vec!["figure", "fig6", "--jobs", "2"];
    local_args.extend_from_slice(&budget);
    let local = looseloops(&local_args);
    assert!(local.status.success());
    assert_eq!(
        String::from_utf8_lossy(&remote.stdout),
        String::from_utf8_lossy(&local.stdout),
        "served figure must match the local run byte-for-byte"
    );
    // The per-request summary (with its dedup counter) goes to stderr.
    let log = String::from_utf8_lossy(&remote.stderr);
    assert!(log.contains("dedup hits"), "{log}");

    // Raw mode: every streamed line parses as JSON with an event field.
    let mut raw_args = vec!["submit", "fig6", "--addr", &addr];
    raw_args.extend_from_slice(&budget);
    let raw = looseloops(&raw_args);
    assert!(raw.status.success());
    let events: Vec<String> = String::from_utf8_lossy(&raw.stdout)
        .lines()
        .map(|l| {
            let v = looseloops::json::parse(l).expect("event line parses as JSON");
            v.get("event")
                .and_then(looseloops::json::JsonValue::as_str)
                .expect("event field")
                .to_string()
        })
        .collect();
    assert_eq!(events, ["hello", "figure", "summary", "done"]);

    // Unknown figures fail loudly, with the daemon still up.
    let bad = looseloops(&["submit", "nonesuch", "--addr", &addr]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown figure"));

    let down = looseloops(&["submit", "--shutdown", "--addr", &addr]);
    assert!(down.status.success());
    let status = daemon.wait().expect("daemon exits after shutdown");
    assert!(status.success());
}

#[test]
fn kernel_inspection_disassembles() {
    let out = looseloops(&["kernel", "go", "--disasm"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("go:"));
    assert!(text.contains("bne"), "go's disassembly has branches");
}
