//! The `trace` binary writes plain allocation-telemetry JSONL: the file
//! it writes reads back whole through the library's own
//! [`ccra_regalloc::trace::parse_jsonl`], and its one closing `program`
//! event carries the same weighted-overhead total as the library
//! allocation of the same request.

use std::process::{Command, Stdio};

use ccra_analysis::FrequencyInfo;
use ccra_machine::RegisterFile;
use ccra_regalloc::trace::{parse_jsonl, AllocEvent};
use ccra_regalloc::{allocate_program, AllocatorConfig};
use ccra_workloads::{spec_program_scaled, Scale, SpecProgram};

#[test]
fn trace_output_is_plain_jsonl_with_the_library_total() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_eqntott.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["eqntott", "--scale", "0.05", "--out"])
        .arg(&path)
        .stdout(Stdio::null())
        .output()
        .expect("trace runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    let text = std::fs::read_to_string(&path).expect("trace wrote its file");
    let events = parse_jsonl(&text).unwrap_or_else(|e| panic!("not plain JSONL: {e}"));
    let programs: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            AllocEvent::Program(s) => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(programs.len(), 1, "one `program` event");

    // The binary's defaults: improved allocator, full MIPS file, profiled
    // frequencies, the paper's cost model.
    let ir = spec_program_scaled(SpecProgram::Eqntott, Scale(0.05));
    let freq = FrequencyInfo::profile(&ir).expect("eqntott profiles");
    let alloc = allocate_program(
        &ir,
        &freq,
        RegisterFile::mips_full(),
        &AllocatorConfig::improved(),
    )
    .expect("eqntott allocates");
    assert_eq!(programs[0].total(), alloc.overhead.total());
}
