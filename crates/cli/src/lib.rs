//! Command implementations for the `cliz` CLI.
//!
//! ```text
//! cliz gen <ssh|cesm-t|relhum|soilliq|tsfc|hurricane-t> --dims 96,80,360 [--seed N] -o file.caf
//! cliz info <file.caf>
//! cliz tune <file.caf> [--rate 0.01] [--rel 1e-3] -o model.clizcfg
//! cliz compress <file.caf> -o file.cz [--rel 1e-3 | --abs X]
//!               [--config model.clizcfg] [--compressor cliz|sz3|sz2|zfp|sperr|qoz]
//! cliz decompress <file.cz> -o out.caf [--mask-from orig.caf]
//! cliz pack-store <file.caf> -o file.czs --chunk ROWS [--rel 1e-3 | --abs X]
//! cliz query <file.czs> --region 120:240,:,: [-o region.caf]
//! cliz eval <orig.caf> <recon.caf>
//! ```
//!
//! Compressed files are `.cz` wrappers: dataset metadata (name, dim names,
//! attributes, compressor id) plus the codec's own container, so
//! decompression rebuilds a complete CAF dataset. The mask map is *not*
//! embedded (CESM convention: it ships with the dataset); masked streams
//! need `--mask-from`. The chunked, random-access container is the `.czs`
//! store: `pack-store` writes one and `query --region` decodes only the
//! chunks a region touches. A chunked `.cz` (codec 6) written by an earlier
//! build still decompresses.

// Decode paths must never panic on untrusted input (see docs/STATIC_ANALYSIS.md).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented
    )
)]

pub mod args;
pub mod commands;
pub mod czfile;

pub use args::{CliError, Parsed};

use std::io::Write;

/// One command: its name, its handler (which writes its report to the given
/// writer), the `--key value` options it reads (`out` is `-o`) and its
/// presence-only flags.
type Command = (
    &'static str,
    fn(&Parsed, &mut dyn Write) -> Result<(), CliError>,
    &'static [&'static str],
    &'static [&'static str],
);

/// Every command and the keys it accepts. [`run`] refuses any other key,
/// so a mistyped option is an error rather than a silently kept default.
const COMMANDS: &[Command] = &[
    ("gen", commands::gen, &["dims", "seed", "out"], &[]),
    ("info", commands::info, &[], &[]),
    ("tune", commands::tune, &["rate", "rel", "out"], &[]),
    (
        "compress",
        commands::compress,
        &["out", "rel", "abs", "config", "compressor"],
        &[],
    ),
    (
        "decompress",
        commands::decompress,
        &["out", "mask-from"],
        &[],
    ),
    (
        "pack-store",
        commands::pack_store,
        &["out", "chunk", "rel", "abs", "config", "threads"],
        &[],
    ),
    ("query", commands::query, &["region", "out"], &["stats"]),
    (
        "serve",
        commands::serve,
        &["addr", "threads", "port-file"],
        &[],
    ),
    ("fetch", commands::fetch, &["region", "out"], &["stats"]),
    ("eval", commands::eval, &[], &[]),
];

/// How a key is spelled on the command line.
pub(crate) fn spelled(key: &str) -> String {
    if key == "out" {
        "-o".to_string()
    } else {
        format!("--{key}")
    }
}

/// Entry point used by `main` and by the integration tests: runs one
/// command, writing its report to `report`.
pub fn run(argv: &[String], report: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv)?;
    let name = parsed.command.as_str();
    if matches!(name, "help" | "--help" | "-h") {
        writeln!(report, "{}", usage())?;
        return Ok(());
    }
    let &(_, handler, options, flags) = COMMANDS
        .iter()
        .find(|c| c.0 == name)
        .ok_or_else(|| CliError::new(format!("unknown command '{name}'\n{}", usage())))?;
    let unknown = parsed
        .options
        .keys()
        .find(|k| !options.contains(&k.as_str()))
        .or_else(|| parsed.flags.iter().find(|k| !flags.contains(&k.as_str())));
    if let Some(key) = unknown {
        let accepted: Vec<String> = options.iter().chain(flags).map(|k| spelled(k)).collect();
        let accepted = if accepted.is_empty() {
            "no options".to_string()
        } else {
            accepted.join(", ")
        };
        return Err(CliError::new(format!(
            "{name}: unknown option {} (accepts {accepted})",
            spelled(key)
        )));
    }
    handler(&parsed, report)
}

/// The binary's report writer: standard output, where a closed stdout (the
/// reader of `cliz ... | head -1` has gone) drops the rest of the report
/// instead of failing the command. The command still writes its `-o` file
/// and exits 0. Any other write error fails the command.
pub struct Stdout;

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match std::io::stdout().write(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(buf.len()),
            written => written,
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match std::io::stdout().flush() {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
            flushed => flushed,
        }
    }
}

/// Top-level usage text.
pub fn usage() -> &'static str {
    "cliz — error-bounded lossy compression for climate datasets

USAGE:
  cliz gen <kind> --dims A,B[,C[,D]] [--seed N] -o file.caf
  cliz info <file.caf>
  cliz tune <file.caf> [--rate 0.01] [--rel 1e-3] -o model.clizcfg
  cliz compress <file.caf> -o file.cz [--rel 1e-3 | --abs X]
                [--config model.clizcfg] [--compressor cliz|sz3|sz2|zfp|sperr|qoz]
  cliz decompress <file.cz> -o out.caf [--mask-from orig.caf]
  cliz pack-store <file.caf> -o file.czs --chunk ROWS
                  [--rel 1e-3 | --abs X] [--config model.clizcfg]
                  [--threads N]   (N=0 means all host cores)
  cliz query <file.czs|http://host/store.czs> --region SPEC [-o region.caf]
             [--stats]
  cliz serve <file.czs|http://host/store.czs> [--addr HOST:PORT]
             [--threads N] [--port-file F]   (N=0 means all host cores)
  cliz fetch <host:port> --region SPEC [-o region.caf] [--stats]
  cliz eval <orig.caf> <recon.caf>

REGION SPEC: one range per dimension, comma-separated. Each range is
half-open `start:end`, `:` for the full extent, `start:` / `:end` for
open ends, or a bare index `i` for a single slice. Examples:
  --region 120:240,:,:        times 120..240, whole globe
  --region 0:1,40:80,100:200  one timestep, a lat/lon window
`pack-store` and `query` are the chunked, random-access path: a `.czs`
store holds the field in chunks of ROWS along its first axis, and
`query` reads any slab or window of it. Only the chunks the region
intersects are decompressed; `query` reports how many chunks were
decoded and the cache hit rate, and `--stats` adds backend fetch counts
and codec time. Stores can live behind any HTTP server that honours
Range requests (`http://` paths); `cliz serve` exposes a store over a
line protocol that `cliz fetch` speaks.

KINDS: ssh, cesm-t, relhum, soilliq, salt, tsfc, hurricane-t"
}
