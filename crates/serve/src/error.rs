//! Error taxonomy for the region server and its client.

use cliz_store::StoreError;

/// Failure while serving or issuing a region-protocol request.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The peer sent a request line the protocol does not define.
    BadRequest(String),
    /// The store rejected the query (bad region, corrupt chunk, backend
    /// failure) — the request was well-formed, the data was not served.
    Store(StoreError),
    /// A response frame that violates the protocol's own grammar
    /// (client-side: the server said something unparseable).
    BadResponse(&'static str),
    /// The server answered with an `ERR` frame; the message is the
    /// server's explanation.
    Remote(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve: io error: {e}"),
            ServeError::BadRequest(w) => write!(f, "serve: bad request ({w})"),
            ServeError::Store(e) => write!(f, "serve: {e}"),
            ServeError::BadResponse(w) => write!(f, "serve: bad response frame ({w})"),
            ServeError::Remote(w) => write!(f, "serve: server error: {w}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_failures_surface_as_io() {
        // Port 1 is never a cliz server; connect must refuse, not hang.
        let err = match crate::Client::connect("127.0.0.1:1") {
            Err(e) => e,
            Ok(_) => unreachable!("connect to a closed port succeeded"),
        };
        assert!(matches!(err, ServeError::Io(_)), "{err}");
    }

    #[test]
    fn store_rejections_surface_as_store() {
        // The `?` conversion the server relies on when `read_region` fails.
        let err = ServeError::from(StoreError::Corrupt("index entry missing"));
        assert!(
            matches!(err, ServeError::Store(StoreError::Corrupt(_))),
            "{err}"
        );
        assert!(err.to_string().contains("index entry missing"));
    }
}
