//! Textual IR round-trips: display → parse → display is the identity, for
//! every workload function and for random programs.

use ccra_ir::{display_function, parse_function, parse_program, MAX_DECLARED};
use ccra_workloads::{random_program, spec_program_scaled, FuzzConfig, Scale, SpecProgram};
use proptest::prelude::*;

#[test]
fn all_workload_functions_roundtrip() {
    for prog in SpecProgram::ALL {
        let p = spec_program_scaled(prog, Scale(0.05));
        for (_, f) in p.functions() {
            let text = display_function(f);
            let parsed = parse_function(&text)
                .unwrap_or_else(|e| panic!("{prog}/{}: {e}\n{text}", f.name()));
            assert_eq!(
                text,
                display_function(&parsed),
                "{prog}/{} did not round-trip",
                f.name()
            );
            ccra_ir::verify_function(&parsed).unwrap();
        }
    }
}

#[test]
fn allocated_functions_roundtrip() {
    // Rewritten functions contain spill slots, temporaries, and overhead
    // markers — the parser must handle all of them.
    use call_cost_regalloc::prelude::*;
    let p = spec_program_scaled(SpecProgram::Li, Scale(0.05));
    let freq = FrequencyInfo::profile(&p).unwrap();
    let out = ccra_regalloc::allocate_program(
        &p,
        &freq,
        RegisterFile::new(6, 4, 1, 1),
        &AllocatorConfig::improved(),
    )
    .expect("allocation succeeds");
    for (_, f) in out.program.functions() {
        let text = display_function(f);
        let parsed = parse_function(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(text, display_function(&parsed));
    }
}

#[test]
fn whole_programs_roundtrip_and_run_identically() {
    use ccra_analysis::{run, InterpConfig};
    for seed in 0..10u64 {
        let p = random_program(seed, &FuzzConfig::default());
        let mut text = String::new();
        for (_, f) in p.functions() {
            text.push_str(&display_function(f));
        }
        text.push_str("main main\n");
        let reparsed = parse_program(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let a = run(&p, &InterpConfig::default()).unwrap();
        let b = run(&reparsed, &InterpConfig::default()).unwrap();
        assert_eq!(a.result, b.result, "seed {seed}");
        assert_eq!(a.steps, b.steps, "seed {seed}");
    }
}

/// Malformed input is a `ParseError`, never a panic: the printed SPEC
/// programs, truncated, with bytes overwritten by IR punctuation, with
/// the delimiters of one line mirrored (`f(v0)` becomes `f)v0(`), or with
/// one number of a declaration line (`int v3`, `slots 2`) raised above
/// [`MAX_DECLARED`], parse to `Ok` or `Err` — and the raised declaration
/// always to `Err`, without sizing anything by it.
#[test]
fn mutated_programs_never_panic_the_parser() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    const ALPHABET: &[u8] = b"(){}[]:,?=+!@-.v0123456789 \n";
    let mut rng = StdRng::seed_from_u64(1997);
    for prog in SpecProgram::ALL {
        let p = spec_program_scaled(prog, Scale(0.05));
        let text: String = p.functions().map(|(_, f)| display_function(f)).collect();
        let declarations: Vec<usize> = text
            .match_indices('\n')
            .map(|(i, _)| i + 1)
            .filter(|&i| {
                let line = &text[i..];
                line.starts_with("  int ")
                    || line.starts_with("  float ")
                    || line.starts_with("  slots ")
            })
            .collect();
        for _ in 0..100 {
            let mut bytes = text.as_bytes().to_vec();
            let at = rng.gen_range(0..bytes.len());
            if rng.gen_range(0..4) == 0 {
                let line = declarations[rng.gen_range(0..declarations.len())];
                let digits = line
                    + bytes[line..]
                        .iter()
                        .position(u8::is_ascii_digit)
                        .expect("a declaration line has a number");
                let end = digits
                    + bytes[digits..]
                        .iter()
                        .position(|b| !b.is_ascii_digit())
                        .unwrap_or(bytes.len() - digits);
                let limit = u64::from(MAX_DECLARED);
                let big = match rng.gen_range(0..3) {
                    0 => limit + rng.gen_range(1..16),
                    1 => rng.gen_range(limit + 1..=u64::from(u32::MAX)),
                    _ => rng.gen_range(u64::from(u32::MAX) + 1..u64::MAX),
                };
                bytes.splice(digits..end, big.to_string().into_bytes());
                let mutated = String::from_utf8(bytes).expect("digits are ASCII");
                assert!(
                    parse_program(&mutated).is_err(),
                    "{prog}: a declared number of {big} was accepted"
                );
                continue;
            }
            match rng.gen_range(0..3) {
                0 => bytes.truncate(at),
                1 => bytes[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())],
                _ => {
                    let end = bytes[at..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |n| at + n);
                    for b in &mut bytes[at..end] {
                        *b = match *b {
                            b'(' => b')',
                            b')' => b'(',
                            b'?' => b':',
                            b':' => b'?',
                            other => other,
                        };
                    }
                }
            }
            let _ = parse_program(&String::from_utf8_lossy(&bytes));
        }
    }
}

/// The parser faces untrusted input, so a seeded sweep throws three
/// kinds of garbage at it — raw bytes (NUL and invalid UTF-8 included,
/// decoded lossily as a caller reading a file would), token soup from the
/// IR's own lexicon, and splices of two printed SPEC programs — and
/// asserts that parsing, and verifying whatever parses, returns without a
/// panic and within a second per case.
#[test]
fn random_bytes_token_soup_and_splices_never_panic_the_parser() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::time::{Duration, Instant};

    const LEXICON: &[&str] = &[
        "func",
        "int",
        "float",
        "slots",
        "bb",
        "br",
        "jump",
        "ret",
        "call @",
        "main",
        "v",
        "fn",
        "iconst",
        "add",
        "load",
        "store",
        "spill_load",
        "spill_store",
        "s",
        "overhead spill x",
        ":",
        "(",
        ")",
        ",",
        "{",
        "}",
        "?",
        "=",
        "!",
        "[",
        "]",
        "+",
        "//",
        " ",
        " ",
        "\n",
        "\n",
    ];
    let mut rng = StdRng::seed_from_u64(0x5EED_F022);
    let printed: Vec<String> = SpecProgram::ALL
        .iter()
        .map(|&prog| {
            let p = spec_program_scaled(prog, Scale(0.05));
            let mut text: String = p.functions().map(|(_, f)| display_function(f)).collect();
            let main = p.main().map(|m| p.function(m).name().to_string());
            text.push_str(&format!("main {}\n", main.unwrap_or_default()));
            text
        })
        .collect();

    let mut cases: Vec<(&str, String)> = Vec::new();
    for _ in 0..300 {
        let len = rng.gen_range(0..512);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
        cases.push(("bytes", String::from_utf8_lossy(&bytes).into_owned()));
    }
    for _ in 0..300 {
        let mut text = String::new();
        for _ in 0..rng.gen_range(0..200) {
            match rng.gen_range(0..4) {
                0 => {
                    // Digits up to 2^64, one past u64::MAX.
                    let n = match rng.gen_range(0..3) {
                        0 => rng.gen_range(0..8u64).to_string(),
                        1 => rng.gen::<u64>().to_string(),
                        _ => "18446744073709551616".to_string(),
                    };
                    text.push_str(&n);
                }
                _ => text.push_str(LEXICON[rng.gen_range(0..LEXICON.len())]),
            }
        }
        cases.push(("soup", text));
    }
    // Splices cut at a line start three times in four (a header of one
    // program over the body of another parses, and leaves the verifier
    // undeclared registers, missing blocks and stray call targets), at
    // any byte otherwise.
    let cut = |rng: &mut StdRng, text: &str| {
        let at = rng.gen_range(0..=text.len());
        if rng.gen_range(0..4) == 0 {
            at
        } else {
            text[..at].rfind('\n').map_or(0, |n| n + 1)
        }
    };
    for _ in 0..200 {
        let a = &printed[rng.gen_range(0..printed.len())];
        let b = &printed[rng.gen_range(0..printed.len())];
        let text = format!("{}{}", &a[..cut(&mut rng, a)], &b[cut(&mut rng, b)..]);
        cases.push(("splice", text));
    }

    let mut parsed = 0;
    for (kind, text) in &cases {
        let start = Instant::now();
        if let Ok(p) = parse_program(text) {
            parsed += 1;
            let _ = p.verify();
        }
        if let Ok(f) = parse_function(text) {
            let _ = ccra_ir::verify_function(&f);
        }
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{kind} case took {:?}:\n{text:?}",
            start.elapsed()
        );
    }
    assert!(parsed >= 20, "only {parsed} cases reached the verifier");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn random_functions_roundtrip(seed in 0u64..100_000) {
        let p = random_program(seed, &FuzzConfig { functions: 1, ..Default::default() });
        let f = p.function(p.main().unwrap());
        let text = display_function(f);
        let parsed = parse_function(&text).map_err(|e| {
            TestCaseError::fail(format!("{e}\n{text}"))
        })?;
        prop_assert_eq!(text, display_function(&parsed));
    }
}
