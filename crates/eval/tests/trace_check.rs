//! The `trace --check` gate compares overhead totals only between runs of
//! one workload, config and scale: against the committed scale-0.05
//! baseline, the same run passes at +0.00% and a scale-1.0 run exits 1
//! with a `MISMATCH` line instead of a bogus `REGRESSION`.

use std::process::{Command, Stdio};

const BASELINE: &str = "baselines/eqntott_improved.jsonl";

/// Runs `trace eqntott --check <baseline>` with `extra` arguments and
/// returns the exit code and stderr.
fn check(extra: &[&str]) -> (Option<i32>, String) {
    let baseline = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(BASELINE);
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .arg("eqntott")
        .args(extra)
        .arg("--check")
        .arg(&baseline)
        .stdout(Stdio::null())
        .output()
        .expect("trace runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn the_baseline_run_passes_at_zero_delta() {
    let (code, stderr) = check(&["--config", "improved", "--scale", "0.05"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("ok: total overhead"), "{stderr}");
    assert!(stderr.contains("(+0.00%"), "{stderr}");
}

#[test]
fn another_scale_is_a_mismatch_not_a_regression() {
    let (code, stderr) = check(&["--scale", "1.0"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(
            "MISMATCH: baseline eqntott [improved] @ scale 0.05 \
             vs current eqntott [improved] @ scale 1"
        ),
        "{stderr}"
    );
    assert!(!stderr.contains("REGRESSION"), "{stderr}");
}
