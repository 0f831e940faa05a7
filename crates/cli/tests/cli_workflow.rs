//! End-to-end CLI workflow: gen → info → tune → compress → decompress → eval,
//! driven through the same `run()` entry point as the binary.

use std::path::PathBuf;

/// Runs one CLI command in-process, its report written into a buffer.
fn run(argv: &[&str]) -> Result<(), cliz_cli::CliError> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    cliz_cli::run(&argv, &mut Vec::new())
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cliz_cli_workflow").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow_masked_dataset() {
    let dir = workdir("masked");
    let caf = dir.join("ssh.caf").display().to_string();
    let cfg = dir.join("model.clizcfg").display().to_string();
    let cz = dir.join("ssh.cz").display().to_string();
    let out = dir.join("recon.caf").display().to_string();

    run(&[
        "gen", "ssh", "--dims", "48,40,72", "--seed", "9", "-o", &caf,
    ])
    .unwrap();
    run(&["info", &caf]).unwrap();
    run(&["tune", &caf, "--rate", "0.05", "-o", &cfg]).unwrap();
    run(&[
        "compress", &caf, "--rel", "1e-3", "--config", &cfg, "-o", &cz,
    ])
    .unwrap();
    run(&["decompress", &cz, "--mask-from", &caf, "-o", &out]).unwrap();
    run(&["eval", &caf, &out]).unwrap();

    // Verify the reconstruction numerically, independent of CLI output.
    let orig = cliz_store::load(std::path::Path::new(&caf)).unwrap();
    let recon = cliz_store::load(std::path::Path::new(&out)).unwrap();
    let (mn, mx) = cliz::valid_min_max(&orig.data, orig.mask.as_ref());
    let eb = 1e-3 * (mx - mn) as f64;
    let max_err = cliz::metrics::max_abs_error(
        orig.data.as_slice(),
        recon.data.as_slice(),
        orig.mask.as_ref(),
    );
    assert!(max_err <= eb * (1.0 + 1e-9), "{max_err} > {eb}");
    // Compression actually happened.
    let packed = std::fs::metadata(&cz).unwrap().len();
    assert!(packed < (orig.data.len() * 4) as u64 / 2);
    // Metadata travelled through the wrapper.
    assert_eq!(recon.name, "SSH");
    assert_eq!(recon.attr("period"), Some("12"));
}

#[test]
fn masked_stream_requires_mask() {
    let dir = workdir("needs_mask");
    let caf = dir.join("t.caf").display().to_string();
    let cz = dir.join("t.cz").display().to_string();
    let out = dir.join("o.caf").display().to_string();
    run(&["gen", "tsfc", "--dims", "24,20,24", "-o", &caf]).unwrap();
    run(&["compress", &caf, "-o", &cz]).unwrap();
    let err = run(&["decompress", &cz, "-o", &out]).unwrap_err();
    assert!(err.message.contains("mask"), "{}", err.message);
}

#[test]
fn baseline_compressors_via_cli() {
    let dir = workdir("baselines");
    let caf = dir.join("h.caf").display().to_string();
    run(&["gen", "hurricane-t", "--dims", "8,32,32", "-o", &caf]).unwrap();
    for codec in ["sz3", "sz2", "zfp", "sperr", "qoz"] {
        let cz = dir.join(format!("h_{codec}.cz")).display().to_string();
        let out = dir.join(format!("h_{codec}.caf")).display().to_string();
        run(&[
            "compress",
            &caf,
            "--compressor",
            codec,
            "--rel",
            "1e-2",
            "-o",
            &cz,
        ])
        .unwrap_or_else(|e| panic!("{codec}: {e}"));
        run(&["decompress", &cz, "-o", &out]).unwrap();
        let orig = cliz_store::load(std::path::Path::new(&caf)).unwrap();
        let recon = cliz_store::load(std::path::Path::new(&out)).unwrap();
        let (mn, mx) = cliz::valid_min_max(&orig.data, None);
        let eb = 1e-2 * (mx - mn) as f64;
        let max_err =
            cliz::metrics::max_abs_error(orig.data.as_slice(), recon.data.as_slice(), None);
        assert!(max_err <= eb * (1.0 + 1e-9), "{codec}: {max_err} > {eb}");
    }
}

#[test]
fn gen_rejects_bad_input() {
    let dir = workdir("bad");
    let caf = dir.join("x.caf").display().to_string();
    assert!(run(&["gen", "nonsense", "--dims", "4,4,4", "-o", &caf]).is_err());
    assert!(run(&["gen", "ssh", "--dims", "4", "-o", &caf]).is_err());
    assert!(run(&["gen", "ssh", "--dims", "a,b,c", "-o", &caf]).is_err());
    assert!(run(&["frobnicate"]).is_err());
}

/// Writes a chunked (codec 6) `.cz` the way `compress --chunk 4` did in
/// earlier builds, which no longer write one.
fn write_chunked_cz(caf: &str, cz: &str) -> cliz_store::Dataset {
    let ds = cliz_store::load(std::path::Path::new(caf)).unwrap();
    let bound = cliz::rel_bound_on_valid(&ds.data, ds.mask.as_ref(), 1e-3);
    let config = cliz::PipelineConfig::default_for(ds.data.shape().ndim());
    let payload =
        cliz::compress_chunked_with_threads(&ds.data, ds.mask.as_ref(), bound, &config, 4, 0)
            .unwrap();
    let file = cliz_cli::czfile::CzFile {
        codec: cliz_cli::czfile::Codec::ClizChunked,
        name: ds.name.clone(),
        dim_names: ds.dim_names.clone(),
        attrs: ds.attrs.clone(),
        masked: ds.mask.as_ref().is_some_and(|m| !m.is_all_valid()),
        payload,
    };
    cliz_cli::czfile::save(std::path::Path::new(cz), &file).unwrap();
    ds
}

#[test]
fn chunked_mode_roundtrips() {
    // A chunked `.cz` written by an earlier build still decompresses
    // within bound.
    let dir = workdir("chunked");
    let caf = dir.join("c.caf").display().to_string();
    let cz = dir.join("c.cz").display().to_string();
    let out = dir.join("c_out.caf").display().to_string();
    run(&["gen", "hurricane-t", "--dims", "16,24,24", "-o", &caf]).unwrap();
    let orig = write_chunked_cz(&caf, &cz);
    run(&["decompress", &cz, "-o", &out]).unwrap();
    let recon = cliz_store::load(std::path::Path::new(&out)).unwrap();
    let (mn, mx) = cliz::valid_min_max(&orig.data, None);
    let eb = 1e-3 * (mx - mn) as f64;
    let max_err = cliz::metrics::max_abs_error(orig.data.as_slice(), recon.data.as_slice(), None);
    assert!(max_err <= eb * (1.0 + 1e-9));

    // A masked one still needs the mask it was compressed against.
    let masked_caf = dir.join("m.caf").display().to_string();
    let masked_cz = dir.join("m.cz").display().to_string();
    run(&["gen", "ssh", "--dims", "12,20,24", "-o", &masked_caf]).unwrap();
    let orig = write_chunked_cz(&masked_caf, &masked_cz);
    assert!(orig.mask.is_some());
    let err = run(&["decompress", &masked_cz, "-o", &out]).unwrap_err();
    assert!(err.message.contains("mask"), "{}", err.message);
    run(&[
        "decompress",
        &masked_cz,
        "--mask-from",
        &masked_caf,
        "-o",
        &out,
    ])
    .unwrap();
    let recon = cliz_store::load(std::path::Path::new(&out)).unwrap();
    let (mn, mx) = cliz::valid_min_max(&orig.data, orig.mask.as_ref());
    let eb = 1e-3 * (mx - mn) as f64;
    let max_err = cliz::metrics::max_abs_error(
        orig.data.as_slice(),
        recon.data.as_slice(),
        orig.mask.as_ref(),
    );
    assert!(max_err <= eb * (1.0 + 1e-9));
}

#[test]
fn unknown_options_are_usage_errors() {
    let dir = workdir("unknown_options");
    let caf = dir.join("t.caf").display().to_string();
    let cz = dir.join("t.cz").display().to_string();
    let czs = dir.join("t.czs").display().to_string();
    let out = dir.join("o.caf").display().to_string();
    run(&["gen", "tsfc", "--dims", "24,20,24", "-o", &caf]).unwrap();
    run(&["compress", &caf, "-o", &cz]).unwrap();
    let cases: [(&[&str], &str, &str); 4] = [
        // A typo must not fall back to the default bound.
        (
            &["compress", &caf, "--rell", "1e-5", "-o", &cz],
            "--rell",
            "--rel,",
        ),
        // The chunked `.cz` is gone: `pack-store` writes chunked stores.
        (
            &["compress", &caf, "--chunk", "4", "-o", &cz],
            "--chunk",
            "--compressor",
        ),
        (
            &[
                "decompress",
                &cz,
                "--mask-from",
                &caf,
                "--threads",
                "2",
                "-o",
                &out,
            ],
            "--threads",
            "--mask-from",
        ),
        (
            &[
                "pack-store",
                &caf,
                "--chunk",
                "4",
                "--thread",
                "2",
                "-o",
                &czs,
            ],
            "--thread",
            "--threads",
        ),
    ];
    for (argv, key, accepted) in cases {
        let err = run(argv).expect_err("unknown option accepted");
        let named = format!("unknown option {key} ");
        assert!(err.message.contains(&named), "{argv:?}: {}", err.message);
        assert!(err.message.contains(accepted), "{argv:?}: {}", err.message);
    }
    // The refused commands wrote nothing.
    assert!(!std::path::Path::new(&out).exists());
    assert!(!std::path::Path::new(&czs).exists());
}

/// A closed stdout (`cliz ... | head -1`) ends the report quietly: the
/// binary exits 0 with nothing on stderr, and still writes its `-o` file.
#[test]
fn closed_stdout_is_not_an_error() {
    let dir = workdir("closed_stdout");
    let caf = dir.join("t.caf").display().to_string();
    let cz = dir.join("t.cz").display().to_string();
    let czs = dir.join("t.czs").display().to_string();
    let region = dir.join("r.caf").display().to_string();
    run(&["gen", "ssh", "--dims", "8,6,10", "-o", &caf]).unwrap();
    run(&["pack-store", &caf, "--chunk", "4", "-o", &czs]).unwrap();
    let runs: [&[&str]; 4] = [
        &["compress", &caf, "--rel", "1e-5", "-o", &cz],
        &["info", &caf],
        &["help"],
        // The report comes before the region file is written.
        &[
            "query", &czs, "--region", "0:4,:,:", "--stats", "-o", &region,
        ],
    ];
    for argv in runs {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cliz"))
            .args(argv)
            .stdout(writer)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {stderr}");
        assert!(stderr.is_empty(), "{argv:?}: {stderr}");
    }
    let written = cliz_store::load(std::path::Path::new(&region)).unwrap();
    assert_eq!(written.data.shape().dims(), &[4, 6, 10]);
}

#[test]
fn cross_variable_config_transfer() {
    // The paper's workflow across *variables* of the same ocean model:
    // tune on SSH, compress SALT with the same .clizcfg.
    let dir = workdir("crossvar");
    let ssh = dir.join("ssh.caf").display().to_string();
    let salt = dir.join("salt.caf").display().to_string();
    let cfg = dir.join("ocean.clizcfg").display().to_string();
    let cz = dir.join("salt.cz").display().to_string();
    let out = dir.join("salt_out.caf").display().to_string();
    run(&["gen", "ssh", "--dims", "32,28,72", "-o", &ssh]).unwrap();
    run(&["tune", &ssh, "--rate", "0.05", "-o", &cfg]).unwrap();
    // SALT is 4-D; the 3-D SSH permutation does not transfer verbatim, which
    // is exactly why the paper tunes per model *and shape family*. Use a 3-D
    // second variable instead: another member field compressed with the
    // shared config (tsfc has the same [lat, lon, time] layout).
    run(&["gen", "tsfc", "--dims", "32,28,72", "-o", &salt]).unwrap();
    run(&[
        "compress", &salt, "--config", &cfg, "--rel", "1e-3", "-o", &cz,
    ])
    .unwrap();
    run(&["decompress", &cz, "--mask-from", &salt, "-o", &out]).unwrap();
    let orig = cliz_store::load(std::path::Path::new(&salt)).unwrap();
    let recon = cliz_store::load(std::path::Path::new(&out)).unwrap();
    let (mn, mx) = cliz::valid_min_max(&orig.data, orig.mask.as_ref());
    let eb = 1e-3 * (mx - mn) as f64;
    let max_err = cliz::metrics::max_abs_error(
        orig.data.as_slice(),
        recon.data.as_slice(),
        orig.mask.as_ref(),
    );
    assert!(max_err <= eb * (1.0 + 1e-9));
}

#[test]
fn abs_and_rel_are_exclusive() {
    let dir = workdir("excl");
    let caf = dir.join("x.caf").display().to_string();
    let cz = dir.join("x.cz").display().to_string();
    run(&["gen", "hurricane-t", "--dims", "4,16,16", "-o", &caf]).unwrap();
    assert!(run(&["compress", &caf, "--abs", "0.1", "--rel", "1e-3", "-o", &cz]).is_err());
    // Absolute bound alone works.
    run(&["compress", &caf, "--abs", "0.1", "-o", &cz]).unwrap();
}

#[test]
fn non_positive_or_non_finite_bounds_are_usage_errors() {
    let dir = workdir("bounds");
    let caf = dir.join("x.caf").display().to_string();
    let cz = dir.join("x.cz").display().to_string();
    let czs = dir.join("x.czs").display().to_string();
    let cfg = dir.join("x.clizcfg").display().to_string();
    run(&["gen", "hurricane-t", "--dims", "4,16,16", "-o", &caf]).unwrap();
    let bad = [
        ("--abs", "0"),
        ("--abs", "-1"),
        ("--abs", "nan"),
        ("--abs", "inf"),
        ("--rel", "0"),
        ("--rel", "-0.1"),
        ("--rel", "nan"),
        // Finite, but times the data range it overflows to infinity.
        ("--rel", "1e308"),
    ];
    for (key, value) in bad {
        let mut commands = vec![
            vec!["compress", &caf, key, value, "-o", &cz],
            vec!["pack-store", &caf, "--chunk", "2", key, value, "-o", &czs],
        ];
        if key == "--rel" {
            commands.push(vec!["tune", &caf, key, value, "-o", &cfg]);
        }
        for argv in commands {
            // An error naming the option, not a panic inside the codec.
            let err = run(&argv).expect_err("bad bound accepted");
            assert!(err.message.contains(key), "{argv:?}: {}", err.message);
        }
    }
}

#[test]
fn tune_rate_outside_unit_interval_is_a_usage_error() {
    let dir = workdir("rate");
    let caf = dir.join("x.caf").display().to_string();
    let cfg = dir.join("x.clizcfg").display().to_string();
    run(&["gen", "hurricane-t", "--dims", "4,16,16", "-o", &caf]).unwrap();
    for rate in ["0", "-0.5", "1.5", "nan", "inf"] {
        // An error naming the option, not a panic inside the block sampler.
        let err = run(&["tune", &caf, "--rate", rate, "-o", &cfg]).expect_err("bad rate accepted");
        assert!(err.message.contains("--rate"), "{rate}: {}", err.message);
    }
}

#[test]
fn tune_with_out_of_range_time_axis_is_an_error() {
    let dir = workdir("time_axis");
    let caf = dir.join("ssh.caf");
    let cfg = dir.join("ssh.clizcfg").display().to_string();
    // A 3-D field whose `time_axis` attribute names a fourth axis.
    let field = cliz::data::ssh(&[8, 10, 24], 3);
    let mut ds = cliz_store::Dataset::new("SSH", field.data, field.mask);
    ds.set_attr("time_axis", "3");
    cliz_store::save(&caf, &ds).unwrap();
    // An error naming the time axis, not a panic inside period detection.
    let caf = caf.display().to_string();
    let err = run(&["tune", &caf, "-o", &cfg]).expect_err("out-of-range time axis accepted");
    assert!(err.message.contains("time axis"), "{}", err.message);
}

// ---------------------------------------------------------------------------
// CZF1 golden fixture: the CLI wrapper format, pinned byte-for-byte (the
// other ten container formats live in the facade-level corpus under
// `tests/golden/`; see `tests/golden_corpus.rs` for the invariants).
// ---------------------------------------------------------------------------

/// The fixed fixture contents: every CZF1 field populated, deterministic
/// payload bytes standing in for an inner container.
fn golden_czfile() -> cliz_cli::czfile::CzFile {
    cliz_cli::czfile::CzFile {
        codec: cliz_cli::czfile::Codec::ClizChunked,
        name: "T2m".into(),
        dim_names: vec!["lat".into(), "lon".into()],
        attrs: vec![("units".into(), "K".into()), ("period".into(), "12".into())],
        masked: false,
        payload: (0..256u32)
            .map(|i| (i.wrapping_mul(97) >> 3) as u8)
            .collect(),
    }
}

#[test]
fn czf1_golden_fixture_is_byte_stable_and_loads() {
    let committed: &[u8] = include_bytes!("golden/czf1.cz");
    let dir = workdir("czf1_golden");
    let path = dir.join("fresh.cz");
    cliz_cli::czfile::save(&path, &golden_czfile()).unwrap();
    let fresh = std::fs::read(&path).unwrap();
    assert_eq!(
        fresh, committed,
        "CZF1 container drifted — run czf1_regenerate_golden for an intentional change"
    );
    // The committed bytes (written by a past build) still load field-exact.
    std::fs::write(&path, committed).unwrap();
    let back = cliz_cli::czfile::load(&path).unwrap();
    assert_eq!(back, golden_czfile());
}

/// Rewrites `crates/cli/tests/golden/czf1.cz`; run only after an intentional
/// CZF1 format change.
#[test]
#[ignore]
fn czf1_regenerate_golden() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    cliz_cli::czfile::save(&dir.join("czf1.cz"), &golden_czfile()).unwrap();
}

#[test]
fn serve_and_fetch_mirror_local_query() {
    let dir = workdir("serve_fetch");
    let caf = dir.join("t.caf").display().to_string();
    let czs = dir.join("t.czs").display().to_string();
    let fetched = dir.join("fetched.caf").display().to_string();
    let queried = dir.join("queried.caf").display().to_string();
    let port_file = dir.join("port").display().to_string();
    run(&["gen", "hurricane-t", "--dims", "24,16,16", "-o", &caf]).unwrap();
    run(&[
        "pack-store",
        &caf,
        "--chunk",
        "4",
        "--rel",
        "1e-3",
        "-o",
        &czs,
    ])
    .unwrap();

    // `cliz serve` never returns; run it on a throwaway thread and learn the
    // ephemeral port from --port-file (the documented scripting idiom). The
    // thread dies with the test process.
    let czs_bg = czs.clone();
    let pf_bg = port_file.clone();
    std::thread::spawn(move || {
        let _ = run(&[
            "serve",
            &czs_bg,
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            &pf_bg,
        ]);
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if !s.is_empty() {
                break s;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve never wrote the port file"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };

    // A remote fetch writes byte-for-byte what a local query writes.
    let spec = "3:14,2:9,:";
    run(&["fetch", &addr, "--region", spec, "-o", &fetched]).unwrap();
    run(&["query", &czs, "--region", spec, "--stats", "-o", &queried]).unwrap();
    let a = std::fs::read(&fetched).unwrap();
    let b = std::fs::read(&queried).unwrap();
    assert_eq!(a, b, "fetch -o and query -o diverged");

    // --stats against the live server is accepted, and bad input is a clean
    // client-side error, not a wedged connection.
    run(&["fetch", &addr, "--region", spec, "--stats"]).unwrap();
    assert!(run(&["fetch", &addr, "--region", "not-a-region"]).is_err());
    // `query` parses `--region` with the server's parser: wrong arity and
    // unparsable bounds are errors about the spec's ranges.
    for bad in ["not-a-region", "3:x,2:9,:"] {
        let err = run(&["query", &czs, "--region", bad]).unwrap_err();
        assert!(err.message.contains("range"), "{bad}: {}", err.message);
    }
    assert!(run(&["fetch", "127.0.0.1:1", "--region", spec]).is_err());
}
