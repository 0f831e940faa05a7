//! The individual CLI commands.

use crate::args::{CliError, Parsed};
use crate::czfile::{self, Codec, CzFile};
use cliz::prelude::*;
use cliz_store::storage::HttpRangeBackend;
use cliz_store::{ChunkStoreReader, Dataset};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Opens a chunk store from a local path or an `http://` URL (range-read
/// through the HTTP backend — only the queried chunks travel the wire).
fn open_reader(path: &str) -> Result<ChunkStoreReader, CliError> {
    if path.starts_with("http://") {
        let backend = HttpRangeBackend::new(path)?;
        Ok(ChunkStoreReader::from_storage(
            Arc::new(backend),
            cliz_store::DEFAULT_CACHE_BUDGET,
        )?)
    } else if path.starts_with("https://") {
        Err(CliError::new(
            "https:// stores are not supported (TLS needs an external terminator); use http://",
        ))
    } else {
        Ok(ChunkStoreReader::open(Path::new(path))?)
    }
}

fn parse_dims(text: &str) -> Result<Vec<usize>, CliError> {
    let dims: Result<Vec<usize>, _> = text.split(',').map(|p| p.trim().parse()).collect();
    let dims = dims.map_err(|_| CliError::new(format!("cannot parse --dims {text}")))?;
    if dims.is_empty() || dims.len() > 4 {
        return Err(CliError::new("--dims takes 1-4 comma-separated extents"));
    }
    Ok(dims)
}

fn dims3(dims: &[usize], kind: &str) -> Result<[usize; 3], CliError> {
    dims.try_into()
        .map_err(|_| CliError::new(format!("{kind} needs exactly 3 dims")))
}

/// `cliz gen <kind> --dims ... [--seed N] -o out.caf`
pub fn gen(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let kind = p.positional(0, "dataset kind")?;
    let seed: u64 = p.parse_option("seed", 42)?;
    let out = p.required("out")?;
    let dims_text = p.required("dims")?;
    let dims = parse_dims(dims_text)?;

    let field = match kind {
        "ssh" => cliz::data::ssh(&dims3(&dims, kind)?, seed),
        "cesm-t" => cliz::data::cesm_t(&dims3(&dims, kind)?, seed),
        "relhum" => cliz::data::relhum(&dims3(&dims, kind)?, seed),
        "tsfc" => cliz::data::tsfc(&dims3(&dims, kind)?, seed),
        "hurricane-t" => cliz::data::hurricane_t(&dims3(&dims, kind)?, seed),
        "soilliq" => {
            let d4: [usize; 4] = dims
                .as_slice()
                .try_into()
                .map_err(|_| CliError::new("soilliq needs exactly 4 dims"))?;
            cliz::data::soilliq(&d4, seed)
        }
        "salt" => {
            let d4: [usize; 4] = dims
                .as_slice()
                .try_into()
                .map_err(|_| CliError::new("salt needs exactly 4 dims"))?;
            cliz::data::salt(&d4, seed)
        }
        other => return Err(CliError::new(format!("unknown dataset kind '{other}'"))),
    };

    let mut ds = Dataset::new(field.kind.name(), field.data, field.mask);
    if let Some(axis) = field.time_axis {
        ds.set_attr("time_axis", axis.to_string());
    }
    if let Some(period) = field.nominal_period {
        ds.set_attr("period", period.to_string());
    }
    ds.set_attr("generator_seed", seed.to_string());
    cliz_store::save(Path::new(out), &ds)?;
    writeln!(
        report,
        "wrote {} ({} {}, {} bytes of f32{})",
        out,
        ds.name,
        ds.data.shape(),
        ds.data.len() * 4,
        if ds.mask.is_some() { ", masked" } else { "" }
    )?;
    Ok(())
}

/// `cliz info <file.caf>`
pub fn info(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "input file")?;
    let ds = cliz_store::load(Path::new(path))?;
    writeln!(report, "variable: {}", ds.name)?;
    let dims: String = ds
        .dim_names
        .iter()
        .zip(ds.data.shape().dims())
        .map(|(name, extent)| format!(" {name}={extent}"))
        .collect();
    writeln!(report, "dims:    {dims}")?;
    writeln!(report, "points:   {}", ds.data.len())?;
    if let Some(m) = &ds.mask {
        writeln!(
            report,
            "mask:     {} valid / {} total ({:.1}% invalid)",
            m.valid_count(),
            m.len(),
            m.invalid_fraction() * 100.0
        )?;
    } else {
        writeln!(report, "mask:     none")?;
    }
    for (k, v) in &ds.attrs {
        writeln!(report, "attr:     {k} = {v}")?;
    }
    let (mn, mx) = cliz::valid_min_max(&ds.data, ds.mask.as_ref());
    writeln!(report, "range:    [{mn}, {mx}] over valid points")?;
    Ok(())
}

/// `cliz tune <file.caf> [--rate R] [--rel E] -o model.clizcfg`
pub fn tune(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "input file")?;
    let rate: f64 = p.parse_option("rate", 0.01)?;
    // The block sampler asserts a rate in (0, 1]; NaN fails this test too.
    if !(rate > 0.0 && rate <= 1.0) {
        let text = p.option("rate").unwrap_or_default();
        return Err(CliError::new(format!(
            "--rate must be in (0, 1], got {text}"
        )));
    }
    let rel = parse_tolerance("rel", p.option("rel").unwrap_or("1e-3"))?;
    let out = p.required("out")?;
    let ds = cliz_store::load(Path::new(path))?;

    let bound = rel_bound(&ds, rel)?;
    let result = cliz::autotune(
        &ds.data,
        ds.mask.as_ref(),
        TuneSpec {
            sampling_rate: rate,
            time_axis: ds.time_axis(),
            bound,
        },
    )?;
    let config = result.best.to_config_string();
    cliz_store::write_atomic(Path::new(out), |w| w.write_all(config.as_bytes()))?;
    writeln!(
        report,
        "tuned {} pipelines on {} sampled points in {:.2}s",
        result.ranking.len(),
        result.sample_points,
        result.seconds
    )?;
    if let Some(period) = result.period_detected {
        writeln!(report, "detected period: {period}")?;
    }
    writeln!(report, "winner: {}", result.best.describe())?;
    writeln!(report, "wrote {out}")?;
    Ok(())
}

fn codec_instance(
    codec: Codec,
    config: Option<PipelineConfig>,
) -> Result<Box<dyn Compressor>, CliError> {
    Ok(match codec {
        Codec::Cliz => Box::new(match config {
            Some(c) => Cliz::tuned(c),
            None => Cliz::new(),
        }),
        Codec::Sz3 => Box::new(SzInterp),
        Codec::Sz2 => Box::new(cliz::Sz2Lorenzo),
        Codec::Zfp => Box::new(Zfp),
        Codec::Sperr => Box::new(Sperr),
        Codec::Qoz => Box::new(Qoz),
        // The chunked container (read-only) has no single-shot codec;
        // `decompress` routes it to `decompress_chunked` first.
        Codec::ClizChunked => {
            return Err(CliError::new("chunked streams have no single-shot codec"))
        }
    })
}

/// `cliz compress <file.caf> -o file.cz [--rel E | --abs X] [--config F] [--compressor C]`
pub fn compress(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "input file")?;
    let out = p.required("out")?;
    let ds = cliz_store::load(Path::new(path))?;

    let bound = parse_bound(p, &ds)?;

    let codec = match p.option("compressor") {
        None => Codec::Cliz,
        Some(name) => Codec::from_name(name)
            .ok_or_else(|| CliError::new(format!("unknown compressor '{name}'")))?,
    };
    let is_cliz = codec == Codec::Cliz;
    let config = match p.option("config") {
        None => None,
        Some(f) => {
            if !is_cliz {
                return Err(CliError::new(
                    "--config only applies to the cliz compressor",
                ));
            }
            Some(PipelineConfig::from_config_string(
                &std::fs::read_to_string(f)?,
            )?)
        }
    };
    let masked = is_cliz
        && ds.mask.as_ref().is_some_and(|m| !m.is_all_valid())
        && config.as_ref().is_none_or(|c| c.use_mask);

    let t0 = std::time::Instant::now();
    let compressor = codec_instance(codec, config)?;
    let payload = compressor.compress(&ds.data, ds.mask.as_ref(), bound)?;
    let secs = t0.elapsed().as_secs_f64();

    let cz = CzFile {
        codec,
        name: ds.name.clone(),
        dim_names: ds.dim_names.clone(),
        attrs: ds.attrs.clone(),
        masked,
        payload,
    };
    czfile::save(Path::new(out), &cz)?;
    let original = ds.data.len() * 4;
    writeln!(
        report,
        "{}: {} -> {} bytes (ratio {:.2}x, {:.3} bits/value) in {:.2}s",
        compressor.name(),
        original,
        cz.payload.len(),
        original as f64 / cz.payload.len() as f64,
        cz.payload.len() as f64 * 8.0 / ds.data.len() as f64,
        secs
    )?;
    if masked {
        writeln!(
            report,
            "note: stream is mask-dependent; decompress with --mask-from {path}"
        )?;
    }
    Ok(())
}

/// `cliz decompress <file.cz> -o out.caf [--mask-from orig.caf]`
pub fn decompress(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "input file")?;
    let out = p.required("out")?;
    let cz = czfile::load(Path::new(path))?;

    let mask = match p.option("mask-from") {
        Some(f) => cliz_store::load(Path::new(f))?.mask,
        None => None,
    };
    if cz.masked && mask.is_none() {
        return Err(CliError::new(
            "stream was compressed against a mask map; pass --mask-from <orig.caf>",
        ));
    }

    let data = match cz.codec {
        Codec::ClizChunked => cliz::decompress_chunked(&cz.payload, mask.as_ref())?,
        _ => codec_instance(cz.codec, None)?.decompress(&cz.payload, mask.as_ref())?,
    };
    let mut ds = Dataset::new(cz.name.clone(), data, mask);
    ds.dim_names = cz.dim_names.clone();
    ds.attrs = cz.attrs.clone();
    cliz_store::save(Path::new(out), &ds)?;
    writeln!(
        report,
        "decompressed {} ({}) -> {} [{} values]",
        path,
        cz.codec.name(),
        out,
        ds.data.len()
    )?;
    Ok(())
}

/// Parses the shared `--abs X | --rel E` bound options against a dataset's
/// valid value range (default `--rel 1e-3`).
fn parse_bound(p: &Parsed, ds: &Dataset) -> Result<cliz::quant::ErrorBound, CliError> {
    match (p.option("abs"), p.option("rel")) {
        (Some(a), None) => Ok(cliz::quant::ErrorBound::Abs(parse_tolerance("abs", a)?)),
        (None, rel) => rel_bound(ds, parse_tolerance("rel", rel.unwrap_or("1e-3"))?),
        (Some(_), Some(_)) => Err(CliError::new("--abs and --rel are exclusive")),
    }
}

/// Resolves `--rel E` against the dataset's valid value range. A ratio so
/// large that the absolute bound overflows to infinity names no bound the
/// quantizer accepts, so it is refused here as a usage error.
fn rel_bound(ds: &Dataset, rel: f64) -> Result<cliz::quant::ErrorBound, CliError> {
    let bound = cliz::rel_bound_on_valid(&ds.data, ds.mask.as_ref(), rel);
    match bound {
        cliz::quant::ErrorBound::Abs(eb) if eb.is_finite() => Ok(bound),
        _ => Err(CliError::new(format!(
            "--rel {rel:e} resolves to a non-finite absolute bound"
        ))),
    }
}

/// Parses the value of `--abs`/`--rel`. Only a finite, positive tolerance
/// names an error bound; the codecs assert that, so anything else is
/// refused here as a usage error.
fn parse_tolerance(key: &str, text: &str) -> Result<f64, CliError> {
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(CliError::new(format!(
            "--{key} must be a finite positive number, got {text}"
        ))),
    }
}

/// `cliz pack-store <file.caf> -o file.czs --chunk ROWS [--rel E | --abs X]
/// [--config F] [--threads N]` — build a CZS random-access chunk store.
pub fn pack_store(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "input file")?;
    let out = p.required("out")?;
    let chunk: usize = p
        .required("chunk")?
        .parse()
        .map_err(|_| CliError::new("bad --chunk"))?;
    let threads: usize = p.parse_option("threads", 0usize)?;
    let ds = cliz_store::load(Path::new(path))?;
    let bound = parse_bound(p, &ds)?;
    let config = match p.option("config") {
        None => PipelineConfig::default_for(ds.data.shape().ndim()),
        Some(f) => PipelineConfig::from_config_string(&std::fs::read_to_string(f)?)?,
    };

    let t0 = std::time::Instant::now();
    let bytes = cliz_store::pack_store(&ds, bound, &config, chunk, threads)?;
    cliz_store::write_atomic(Path::new(out), |w| w.write_all(&bytes))?;
    let original = ds.data.len() * 4;
    let n_chunks = ds
        .data
        .shape()
        .dims()
        .first()
        .map_or(1, |&d| d.div_ceil(chunk));
    writeln!(
        report,
        "packed {} -> {} ({} chunks of {} rows, {} -> {} bytes, ratio {:.2}x) in {:.2}s",
        path,
        out,
        n_chunks,
        chunk,
        original,
        bytes.len(),
        original as f64 / bytes.len() as f64,
        t0.elapsed().as_secs_f64()
    )?;
    Ok(())
}

/// `cliz query <file.czs> --region SPEC [-o region.caf]` — decode just one
/// region of a chunk store.
pub fn query(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "store file")?;
    let spec = p.required("region")?;
    let reader = open_reader(path)?;
    let ranges = cliz_serve::parse_region(spec, reader.dims())?;

    let t0 = std::time::Instant::now();
    let region = reader.read_region(&ranges)?;
    let secs = t0.elapsed().as_secs_f64();
    let stats = reader.stats();
    writeln!(
        report,
        "region {} of {} ({}): decoded {} of {} chunks in {:.3}s",
        region.shape(),
        reader.name(),
        path,
        stats.decodes,
        reader.n_chunks(),
        secs
    )?;
    writeln!(
        report,
        "cache: {} hits / {} misses, {} bytes resident",
        stats.cache.hits, stats.cache.misses, stats.cache.resident_bytes
    )?;
    if p.flag("stats") {
        writeln!(
            report,
            "backend: {} gets, {} bytes fetched (coalesced over {} cold chunks)",
            stats.backend_gets, stats.backend_bytes, stats.decodes
        )?;
        writeln!(
            report,
            "decode:  {:.3} ms inside the chunk codec",
            stats.decode_ns as f64 / 1e6
        )?;
    }
    match p.option("out") {
        Some(out) => {
            let mut ds = Dataset::new(format!("{}[region]", reader.name()), region, None);
            ds.dim_names = reader.dim_names().to_vec();
            ds.attrs = reader.attrs().to_vec();
            ds.set_attr("region", spec.to_string());
            cliz_store::save(Path::new(out), &ds)?;
            writeln!(report, "wrote {out}")?;
        }
        None => {
            if let Some((mn, mx)) = region.finite_min_max(None) {
                writeln!(report, "range: [{mn}, {mx}]")?;
            }
        }
    }
    Ok(())
}

/// Worker count for `serve --threads N`: 0 means the host's parallelism,
/// as everywhere else in the CLI.
fn serve_workers(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// `cliz serve <file.czs|http://...> [--addr HOST:PORT] [--threads N]
/// [--port-file F]` — serve region queries over TCP until killed.
pub fn serve(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let path = p.positional(0, "store file")?;
    let addr = p.option("addr").unwrap_or("127.0.0.1:4664");
    let threads = serve_workers(p.parse_option("threads", 4usize)?);
    let reader = Arc::new(open_reader(path)?);
    let name = reader.name().to_string();
    let (n_chunks, chunk_len) = (reader.n_chunks(), reader.chunk_len());
    let server = cliz_serve::Server::start(reader, addr, cliz_serve::ServerConfig { threads })?;
    writeln!(
        report,
        "serving {name} ({n_chunks} chunks of {chunk_len} rows) on {} with {threads} threads",
        server.addr()
    )?;
    // Scripts that bind an ephemeral port (`--addr 127.0.0.1:0`) learn the
    // real address from the port file instead of scraping stdout.
    if let Some(f) = p.option("port-file") {
        std::fs::write(f, server.addr().to_string())?;
    }
    // Serve until the process is killed; the worker pool owns all work.
    loop {
        std::thread::park();
    }
}

/// `cliz fetch <host:port> --region SPEC [-o region.caf]` — query a running
/// `cliz serve` instance; `-o` writes the same CAF bytes `cliz query -o`
/// would write against the local store.
pub fn fetch(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let addr = p.positional(0, "server address")?;
    let spec = p.required("region")?;
    let mut client = cliz_serve::Client::connect(addr)?;
    let pairs = client.info()?;
    let find = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    let name = find("variable").ok_or_else(|| CliError::new("server INFO lacks a variable"))?;

    let t0 = std::time::Instant::now();
    let (shape, values) = client.region(spec)?;
    let secs = t0.elapsed().as_secs_f64();
    if p.flag("stats") {
        writeln!(report, "server stats: {}", client.stats_json()?)?;
    }
    client.quit()?;

    let dims_text = shape
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x");
    writeln!(
        report,
        "fetched region {dims_text} of {name} from {addr} ({} bytes) in {secs:.3}s",
        values.len() * 4
    )?;
    let region = Grid::from_vec(Shape::new(&shape), values);
    match p.option("out") {
        Some(out) => {
            // Mirror `query -o` exactly (name, dim names, attrs, region
            // attr) so fetching over the wire and querying the local store
            // produce byte-identical CAF files.
            let mut ds = Dataset::new(format!("{name}[region]"), region, None);
            ds.dim_names = find("dim_names")
                .unwrap_or_default()
                .split(',')
                .map(str::to_string)
                .collect();
            for (k, v) in &pairs {
                if let Some(attr) = k.strip_prefix("attr:") {
                    ds.attrs.push((attr.to_string(), v.clone()));
                }
            }
            ds.set_attr("region", spec.to_string());
            cliz_store::save(Path::new(out), &ds)?;
            writeln!(report, "wrote {out}")?;
        }
        None => {
            if let Some((mn, mx)) = region.finite_min_max(None) {
                writeln!(report, "range: [{mn}, {mx}]")?;
            }
        }
    }
    Ok(())
}

/// `cliz eval <orig.caf> <recon.caf>`
pub fn eval(p: &Parsed, report: &mut dyn Write) -> Result<(), CliError> {
    let orig = cliz_store::load(Path::new(p.positional(0, "original file")?))?;
    let recon = cliz_store::load(Path::new(p.positional(1, "reconstructed file")?))?;
    if orig.data.shape() != recon.data.shape() {
        return Err(CliError::new("shape mismatch between files"));
    }
    let mask = orig.mask.as_ref();
    let stats =
        cliz::metrics::error::error_stats(orig.data.as_slice(), recon.data.as_slice(), mask);
    let ssim = cliz::metrics::ssim(
        &orig.data,
        &recon.data,
        mask,
        cliz::metrics::SsimSpec::default(),
    );
    writeln!(report, "points compared: {} (valid)", stats.points)?;
    writeln!(report, "max |error|:     {:.6e}", stats.max_abs)?;
    writeln!(report, "RMSE:            {:.6e}", stats.rmse)?;
    writeln!(report, "PSNR:            {:.2} dB", stats.psnr())?;
    writeln!(report, "SSIM:            {ssim:.6}")?;

    // Z-checker-style distribution diagnostics.
    let analysis =
        cliz::metrics::analyze_errors(orig.data.as_slice(), recon.data.as_slice(), mask, 21, 8);
    writeln!(report, "pearson:         {:.8}", analysis.pearson)?;
    writeln!(report, "error bias:      {:+.3e}", analysis.mean_error)?;
    writeln!(
        report,
        "max |autocorr|:  {:.4} over lags 1..=8 (near 0 = unstructured error)",
        analysis.max_autocorrelation()
    )?;
    if analysis.max_abs > 0.0 && analysis.points > 0 {
        let peak = analysis.histogram.iter().copied().max().unwrap_or(1).max(1);
        writeln!(
            report,
            "error histogram over [-{0:.2e}, +{0:.2e}]:",
            analysis.max_abs
        )?;
        for (b, &count) in analysis.histogram.iter().enumerate() {
            let bar = "#".repeat(count * 40 / peak);
            let lo = -analysis.max_abs + b as f64 * analysis.bucket_width;
            writeln!(report, "  {lo:+.2e} {bar}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_threads_zero_means_host_parallelism() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(serve_workers(0), host);
        assert_eq!(serve_workers(1), 1);
        assert_eq!(serve_workers(3), 3);
    }
}
