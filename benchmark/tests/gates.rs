//! The verification gates fire: a poisoned memo cache fails `edit-1000`'s
//! byte-identity check, and a dropped spill store fails the checker or the
//! replay comparison — and either makes the benchmark exit non-zero.

use std::process::Command;

use ccra_benchmark::calls;
use ccra_benchmark::workload::Verifier;

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--seed", "3", "--seconds", "0.5", "--tiny"])
        .args(args)
        .output()
        .expect("the benchmark runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

#[test]
fn a_poisoned_cache_fails_edit_1000() {
    let (ok, stdout) = bench(&["--workload", "edit-1000"]);
    assert!(ok, "the honest run passes:\n{stdout}");
    assert!(last_line(&stdout).starts_with(r#"{"correct":true"#));

    let (ok, stdout) = bench(&["--workload", "edit-1000", "--inject", "poison-cache"]);
    assert!(!ok, "a poisoned cache must fail the run:\n{stdout}");
    assert!(stdout.contains("not byte-identical"), "{stdout}");
    assert!(last_line(&stdout).starts_with(r#"{"correct":false"#));
}

#[test]
fn a_dropped_spill_store_fails_spec_suite() {
    let (ok, stdout) = bench(&["--workload", "spec-suite"]);
    assert!(ok, "the honest run passes:\n{stdout}");

    let (ok, stdout) = bench(&["--workload", "spec-suite", "--inject", "drop-spill-store"]);
    assert!(!ok, "a dropped spill store must fail the run:\n{stdout}");
    assert!(stdout.contains("VERIFICATION FAILED"), "{stdout}");
}

#[test]
fn the_verifier_rejects_an_allocation_missing_a_spill_store() {
    let p = calls::random_program(11, 2, 40, 2);
    let freq = calls::profile(&p).expect("fuzz programs terminate");
    let file = calls::RegisterFile::new(6, 4, 4, 2);
    let mut alloc =
        calls::allocate_program(&p, &freq, file, &calls::improved()).expect("allocates");
    let mut v = Verifier::default();
    let expected = v.replay_original(&p).expect("replays");
    v.verify(&p, &freq, &alloc, Some(&expected))
        .expect("the honest allocation verifies");
    assert!(
        calls::drop_one_spill_store(&mut alloc),
        "the tight file forces a spill"
    );
    assert!(v.verify(&p, &freq, &alloc, Some(&expected)).is_err());
}
