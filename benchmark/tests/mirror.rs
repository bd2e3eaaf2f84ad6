//! Mirror fidelity: the traced run re-drives the allocator through the
//! pipeline and cache mirrors, so its per-layer numbers describe the real
//! program only if the mirrors return exactly what the library's entry
//! points return.

use ccra_benchmark::calls::{self, mirror, AllocatorConfig, RegisterFile};
use ccra_benchmark::spans::Tracer;

fn assert_mirrors(
    p: &calls::Program,
    freq: &calls::FrequencyInfo,
    file: RegisterFile,
    config: &AllocatorConfig,
    what: &str,
) {
    let mut tr = Tracer::enabled();
    assert_eq!(
        mirror::allocate_functions(p, freq, file, config, &mut tr),
        calls::allocate_functions(p, freq, file, config),
        "{what}: per-function results (rewritten body, overhead, rounds, spills, claims)"
    );
    assert_eq!(
        mirror::allocate_program(p, freq, file, config, &mut tr),
        calls::allocate_program(p, freq, file, config),
        "{what}: program results"
    );
    for name in ["liveness", "webs", "build", "color", "rewrite"] {
        assert!(tr.total_us(name) > 0.0, "{what}: no {name} span");
    }
    let mut off = Tracer::disabled();
    assert_eq!(
        mirror::allocate_program(p, freq, file, config, &mut off),
        calls::allocate_program(p, freq, file, config),
        "{what}: untraced mirror"
    );
    assert!(off.spans().is_empty());
}

#[test]
fn the_pipeline_mirror_equals_the_pipeline_on_the_spec_suite() {
    for (name, p) in calls::spec_programs(0.05) {
        let freq = calls::profile(&p).expect("spec programs profile");
        for (clabel, config) in calls::spec_configs() {
            for (flabel, file) in calls::spec_files() {
                assert_mirrors(
                    &p,
                    &freq,
                    file,
                    &config,
                    &format!("{name}/{clabel}/{flabel}"),
                );
            }
        }
    }
}

#[test]
fn the_pipeline_mirror_equals_the_pipeline_on_fuzzed_programs() {
    let configs = [
        AllocatorConfig::improved(),
        AllocatorConfig::base().with_reconstruction(),
    ];
    for seed in 0..20 {
        let p = calls::random_program(1000 + seed, 3, 25, 2);
        let freq = calls::profile(&p).expect("fuzz programs terminate");
        let config = &configs[seed as usize % 2];
        for (flabel, file) in calls::spec_files() {
            assert_mirrors(&p, &freq, file, config, &format!("fuzz {seed}/{flabel}"));
        }
    }
}

#[test]
fn the_pipeline_mirror_reports_a_spill_loop_that_does_not_converge() {
    let p = calls::random_program(7, 2, 40, 2);
    let freq = calls::profile(&p).expect("fuzz programs terminate");
    let config = AllocatorConfig::base().with_max_spill_rounds(1);
    let file = RegisterFile::new(6, 4, 4, 0);
    let mut tr = Tracer::enabled();
    let strict = calls::allocate_functions(&p, &freq, file, &config);
    assert!(
        strict.iter().any(Result::is_err),
        "one round must not suffice"
    );
    assert_eq!(
        mirror::allocate_functions(&p, &freq, file, &config, &mut tr),
        strict
    );
    assert_eq!(
        mirror::allocate_program(&p, &freq, file, &config, &mut tr),
        calls::allocate_program(&p, &freq, file, &config),
        "both fall back to the same degraded allocation"
    );
    assert!(tr.counter("pipeline.degraded") > 0.0);
}

#[test]
fn the_cache_mirror_equals_a_cached_driver_run() {
    let base = calls::synth_program(60, 5);
    let freq = calls::estimate(&base);
    let mut edited = base.clone();
    calls::edit_function(&mut edited, 7, 1);
    calls::edit_function(&mut edited, 31, 2);
    let efreq = calls::estimate(&edited);
    let (config, file) = (calls::improved(), calls::mips_full());
    let (driven, mirrored) = (calls::new_cache(false), calls::new_cache(false));
    let mut tr = Tracer::enabled();
    for (p, f) in [(&base, &freq), (&edited, &efreq)] {
        let d = calls::driver_allocate(2, p, f, file, &config, Some(&driven), false)
            .expect("driver allocates");
        let m = mirror::cached(p, f, file, &config, &mirrored, &mut tr).expect("mirror allocates");
        assert_eq!(m, d.alloc, "cache mirror vs allocate_program_cached");
        assert_eq!(
            m,
            calls::allocate_program(p, f, file, &config).expect("allocates")
        );
        assert_eq!(calls::cache_stats(&mirrored), calls::cache_stats(&driven));
    }
    let st = calls::cache_stats(&mirrored);
    assert_eq!(
        (st.hits, st.misses),
        (58, 62),
        "60 cold misses, then 58 hits and 2 misses"
    );
    assert_eq!(tr.counter("cache.hits"), 58.0);
    assert_eq!(tr.counter("cache.misses"), 62.0);
}
