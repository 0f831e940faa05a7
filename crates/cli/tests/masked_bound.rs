//! The paper's pointwise bound, end to end, on the paper's own case: a
//! masked `ssh` field packed into a store with its `autotune_fast` config
//! (periodic, permuted), then read back through every surface a user has
//! — a region cold and warm, the whole grid, a served `REGION` reply and
//! the CAF that `cliz fetch -o` writes from it. Each must be within the
//! resolved bound of the original at every valid point, and carry the
//! store's fill at every masked point.

use cliz::data::FILL_VALUE;
use cliz::grid::{Grid, MaskMap};
use cliz::quant::ErrorBound;
use cliz::store::{pack_store, ChunkStoreReader, Dataset};
use cliz::{Periodicity, TuneSpec};
use cliz_serve::{Client, Server, ServerConfig};
use std::ops::Range;
use std::sync::Arc;

/// `[lat, lon, time]`: five annual cycles of monthly data.
const DIMS: [usize; 3] = [24, 30, 60];
const CHUNK_LEN: usize = 5;
const REL: f64 = 1e-3;

/// Checks `got`, read over `region`, against `original`: within `eb` at
/// every valid point, the fill at every masked one.
fn check(
    what: &str,
    got: &Grid<f32>,
    original: &Grid<f32>,
    mask: &MaskMap,
    region: &[Range<usize>],
    eb: f64,
) {
    let lens: Vec<usize> = region.iter().map(Range::len).collect();
    assert_eq!(got.shape().dims(), &lens[..], "{what}: shape");
    let [_, d1, d2] = DIMS;
    let mut values = got.as_slice().iter();
    let (mut masked, mut valid) = (0, 0);
    for i in region[0].clone() {
        for j in region[1].clone() {
            for k in region[2].clone() {
                let at = (i * d1 + j) * d2 + k;
                let (a, b) = (original.as_slice()[at], *values.next().unwrap());
                if mask.is_valid(at) {
                    let err = (f64::from(a) - f64::from(b)).abs();
                    assert!(err <= eb, "{what}: |{a} - {b}| = {err} > {eb} at {at}");
                    valid += 1;
                } else {
                    assert_eq!(b.to_bits(), FILL_VALUE.to_bits(), "{what}: fill at {at}");
                    masked += 1;
                }
            }
        }
    }
    assert!(
        masked > 0 && valid > 0,
        "{what}: {masked} masked, {valid} valid points"
    );
}

#[test]
fn masked_periodic_permuted_store_keeps_the_bound_on_every_read_path() {
    let generated = cliz::data::ssh(&DIMS, 5);
    let mask = generated.mask.expect("ssh is masked");
    let original = generated.data;
    assert!(!mask.is_all_valid());

    let spec = TuneSpec {
        time_axis: Some(2),
        ..TuneSpec::new(ErrorBound::Rel(REL))
    };
    let config = cliz::autotune_fast(&original, Some(&mask), spec)
        .unwrap()
        .best;
    assert!(
        matches!(config.periodicity, Periodicity::Extract { .. }),
        "tuned config is not periodic: {config:?}"
    );
    assert!(
        config.permutation.iter().enumerate().any(|(i, &p)| i != p),
        "tuned config is not permuted: {config:?}"
    );
    let mut ds = Dataset::new("SSH", original.clone(), Some(mask.clone()));
    ds.set_attr("time_axis", "2");
    let store = pack_store(&ds, ErrorBound::Rel(REL), &config, CHUNK_LEN, 2).unwrap();
    assert_eq!(store[4], 2, "not a CZS1 version-2 store");
    let (mn, mx) = cliz::valid_min_max(&original, Some(&mask));
    let eb = ErrorBound::Rel(REL).resolve(mn, mx);

    let reader = Arc::new(ChunkStoreReader::from_bytes(store).unwrap());
    // Rows 3..17 straddle the slab boundaries at 5, 10 and 15.
    let region = [3..17, 4..27, 7..53];
    let cold = reader.read_region(&region).unwrap();
    check("cold read_region", &cold, &original, &mask, &region, eb);
    let decoded = reader.decode_count();
    let warm = reader.read_region(&region).unwrap();
    assert_eq!(
        reader.decode_count(),
        decoded,
        "the warm read decoded again"
    );
    check("warm read_region", &warm, &original, &mask, &region, eb);
    let full: Vec<Range<usize>> = DIMS.iter().map(|&d| 0..d).collect();
    check(
        "read_all",
        &reader.read_all().unwrap(),
        &original,
        &mask,
        &full,
        eb,
    );

    let server = Server::start(
        Arc::clone(&reader),
        "127.0.0.1:0",
        ServerConfig { threads: 1 },
    )
    .expect("server binds");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (shape, values) = client.region("3:17,4:27,7:53").expect("served region");
    let served = Grid::from_vec(cliz::grid::Shape::new(&shape), values);
    check("served REGION", &served, &original, &mask, &region, eb);
    client.quit().expect("clean quit");

    // The CLI's `fetch`: the same region over the wire, written as a CAF.
    let dir = std::env::temp_dir().join(format!("cliz_masked_bound_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("fetched.caf");
    let argv = [
        "fetch".to_string(),
        server.addr().to_string(),
        "--region".to_string(),
        "3:17,4:27,7:53".to_string(),
        "-o".to_string(),
        out.display().to_string(),
    ];
    cliz_cli::run(&argv, &mut Vec::new()).expect("cliz fetch");
    let fetched = cliz::store::load(&out).unwrap();
    check("fetch -o", &fetched.data, &original, &mask, &region, eb);
    let _ = std::fs::remove_dir_all(&dir);
    server.stop();
}
