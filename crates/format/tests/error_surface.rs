//! Every `FormatError` variant a header parser can construct is exercised
//! here from the public API — the R16 error-surface contract for the
//! shared cursor layer itself.

use cliz_format::{spec, FormatError, HeaderReader, HeaderWriter};

#[test]
fn truncated_surface() {
    let mut r = HeaderReader::new(&[1, 2]);
    assert_eq!(r.u32().unwrap_err(), FormatError::Truncated);
    let mut w = HeaderWriter::new();
    w.u64(9); // block claims 9 bytes, provides none
    let bytes = w.finish();
    assert_eq!(
        HeaderReader::new(&bytes).block().unwrap_err(),
        FormatError::Truncated
    );
}

#[test]
fn bad_magic_surface() {
    let mut w = HeaderWriter::new();
    w.magic(&spec::ZLT1);
    let bytes = w.finish();
    assert_eq!(
        HeaderReader::new(&bytes)
            .expect_magic(&spec::CZS1)
            .unwrap_err(),
        FormatError::BadMagic
    );
}

#[test]
fn unsupported_version_surface() {
    let mut w = HeaderWriter::new();
    w.u32(spec::CAF1.magic);
    w.u8(0xEE);
    let bytes = w.finish();
    assert_eq!(
        HeaderReader::new(&bytes)
            .expect_magic(&spec::CAF1)
            .unwrap_err(),
        FormatError::UnsupportedVersion(0xEE)
    );
}

#[test]
fn corrupt_surface() {
    // Non-UTF-8 string bytes.
    let mut w = HeaderWriter::new();
    w.u16(1);
    w.raw(&[0xFF]);
    let bytes = w.finish();
    assert!(matches!(
        HeaderReader::new(&bytes).str16(),
        Err(FormatError::Corrupt(_))
    ));
    // Varint wider than 64 bits.
    assert!(matches!(
        HeaderReader::new(&[0x80; 11]).varint(),
        Err(FormatError::Corrupt(_))
    ));
}

#[test]
fn errors_render_for_operators() {
    for e in [
        FormatError::Truncated,
        FormatError::BadMagic,
        FormatError::UnsupportedVersion(7),
        FormatError::Corrupt("demo"),
    ] {
        assert!(!e.to_string().is_empty());
    }
}
