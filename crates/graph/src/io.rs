//! Graph serialisation: plain-text edge lists and a compact binary format.
//!
//! The paper's datasets ship as directed edge lists (`u v` per line, `#`
//! comments), the format read here by [`read_edge_list`]. The binary format
//! ([`write_binary`] / [`read_binary`]) stores the out-CSR directly. Both
//! readers hand their pairs to one [`GraphBuilder`], so a loaded graph is
//! checked and canonicalised the same way whatever its format. A binary
//! file's rows arrive sorted, so the builder's per-row sorts only confirm
//! the order, and the in-CSR is rebuilt by its counting sort.

use crate::csr::{Graph, GraphBuilder};
use crate::NodeId;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from reading or writing graph files.
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line of an edge list could not be parsed.
    Parse { line: usize, content: String },
    /// A node id on `line` exceeds what this build can represent (`u32`
    /// node ids, so `max id + 1` must fit in `u32`) or what the file's own
    /// header permits.
    IdOutOfRange { line: usize, value: u64, max: u64 },
    /// A count declared in the file's header disagrees with the body
    /// (e.g. a Matrix Market size line promising more entries than exist).
    HeaderMismatch {
        what: &'static str,
        declared: u64,
        found: u64,
    },
    /// Binary file did not start with the expected magic bytes/version.
    BadMagic,
    /// Binary file was internally inconsistent (truncated, bad offsets…).
    Corrupt(&'static str),
}

impl From<io::Error> for GraphIoError {
    fn from(e: io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::Parse { line, content } => {
                write!(f, "cannot parse edge on line {line}: {content:?}")
            }
            GraphIoError::IdOutOfRange { line, value, max } => {
                write!(f, "node id {value} on line {line} out of range (max {max})")
            }
            GraphIoError::HeaderMismatch {
                what,
                declared,
                found,
            } => {
                write!(
                    f,
                    "header mismatch: {what} declared as {declared} but found {found}"
                )
            }
            GraphIoError::BadMagic => write!(f, "not a gorder binary graph file"),
            GraphIoError::Corrupt(what) => write!(f, "corrupt binary graph file: {what}"),
        }
    }
}

impl std::error::Error for GraphIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

const MAGIC: &[u8; 8] = b"GORDERG1";

/// Upper bound on speculative preallocation driven by untrusted file
/// headers: never reserve more than this many entries up front. Vectors
/// still grow to the real size as data actually arrives, so a corrupt
/// header claiming billions of entries cannot trigger a huge allocation.
pub(crate) const PREALLOC_CAP: usize = 1 << 20;

/// Largest node id an edge list may carry: node count is `max id + 1` and
/// must itself fit in `u32`.
const MAX_EDGE_LIST_ID: u64 = u32::MAX as u64 - 1;

/// Reads a directed edge list: one `u v` pair per line, whitespace
/// separated; blank lines and lines starting with `#` or `%` are skipped.
/// Node count is `max id + 1`.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphIoError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_id: u32 = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        // Parse into u64 first so oversized ids are distinguished from
        // unparseable garbage and reported with their line number.
        let parse = |tok: Option<&str>| -> Option<u64> { tok.and_then(|t| t.parse().ok()) };
        match (parse(it.next()), parse(it.next())) {
            (Some(u), Some(v)) => {
                let big = u.max(v);
                if big > MAX_EDGE_LIST_ID {
                    return Err(GraphIoError::IdOutOfRange {
                        line: idx + 1,
                        value: big,
                        max: MAX_EDGE_LIST_ID,
                    });
                }
                let (u, v) = (u as u32, v as u32);
                max_id = max_id.max(u).max(v);
                edges.push((u, v));
            }
            _ => {
                return Err(GraphIoError::Parse {
                    line: idx + 1,
                    content: trimmed.to_string(),
                })
            }
        }
    }
    let n = if edges.is_empty() { 0 } else { max_id + 1 };
    Ok(GraphBuilder::from_edges(n, edges).build())
}

/// Reads an edge list from a file path.
pub fn read_edge_list_path<P: AsRef<Path>>(path: P) -> Result<Graph, GraphIoError> {
    if let Some(e) = gorder_obs::faults::io_read_error("graph.io_read") {
        return Err(e.into());
    }
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes the graph as a `u v` edge list with a header comment.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphIoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# directed graph: {} nodes, {} edges", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes an edge list to a file path.
pub fn write_edge_list_path<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphIoError> {
    write_edge_list(g, std::fs::File::create(path)?)
}

fn put_u64(w: &mut impl Write, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes the compact binary format (magic, n, m, out-offsets, out-targets;
/// little endian).
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> Result<(), GraphIoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    put_u64(&mut w, u64::from(g.n()))?;
    put_u64(&mut w, g.m())?;
    let (offsets, targets) = g.out_csr();
    for &o in offsets {
        put_u64(&mut w, o)?;
    }
    for &t in targets {
        w.write_all(&t.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads the compact binary format written by [`write_binary`].
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, GraphIoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(GraphIoError::BadMagic);
    }
    let n = get_u64(&mut r)?;
    let m = get_u64(&mut r)?;
    if n > u64::from(u32::MAX) {
        return Err(GraphIoError::Corrupt("node count exceeds u32"));
    }
    let n32 = n as u32;
    // Both counts come from an untrusted header: cap the speculative
    // reservations and let the vectors grow as real data arrives.
    let offsets_cap = usize::try_from(n)
        .unwrap_or(usize::MAX)
        .saturating_add(1)
        .min(PREALLOC_CAP);
    let mut offsets = Vec::with_capacity(offsets_cap);
    for _ in 0..=n {
        offsets.push(get_u64(&mut r)?);
    }
    if offsets.first() != Some(&0) || offsets.last() != Some(&m) {
        return Err(GraphIoError::Corrupt("offset array endpoints"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphIoError::Corrupt("offsets not monotone"));
    }
    let edges_cap = usize::try_from(m).unwrap_or(usize::MAX).min(PREALLOC_CAP);
    let mut b = GraphBuilder::with_capacity(n32, edges_cap);
    for u in 0..n32 {
        let lo = offsets[u as usize];
        let hi = offsets[u as usize + 1];
        // Monotonicity was verified above, so this never underflows; keep
        // it checked anyway — these values came off disk.
        let deg = hi
            .checked_sub(lo)
            .ok_or(GraphIoError::Corrupt("offsets not monotone"))?;
        for _ in 0..deg {
            let mut tb = [0u8; 4];
            r.read_exact(&mut tb)?;
            let v = u32::from_le_bytes(tb);
            if v >= n32 {
                return Err(GraphIoError::Corrupt("target id out of range"));
            }
            b.add_edge(u, v);
        }
    }
    Ok(b.build())
}

/// Writes the binary format to a file path.
pub fn write_binary_path<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphIoError> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Reads the binary format from a file path.
pub fn read_binary_path<P: AsRef<Path>>(path: P) -> Result<Graph, GraphIoError> {
    if let Some(e) = gorder_obs::faults::io_read_error("graph.io_read") {
        return Err(e.into());
    }
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3)])
    }

    #[test]
    fn injected_io_fault_surfaces_as_io_error() {
        // Own site counter; no other graph test arms faults, so no lock.
        gorder_obs::faults::arm_from_spec("graph.io_read=1+").unwrap();
        let path = std::env::temp_dir().join(format!("gorder-io-fault-{}.el", std::process::id()));
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let err = read_edge_list_path(&path).expect_err("armed fault must fire");
        gorder_obs::faults::disarm();
        match err {
            GraphIoError::Io(e) => assert!(e.to_string().contains("injected"), "{e}"),
            other => panic!("expected Io, got {other:?}"),
        }
        // Disarmed, the same read succeeds.
        assert!(read_edge_list_path(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_skips_comments_and_blanks() {
        let text = "# comment\n% other comment\n\n0 1\n 1 2 \n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_reports_parse_error_line() {
        let text = "0 1\nnot an edge\n";
        match read_edge_list(text.as_bytes()) {
            Err(GraphIoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_rejects_oversized_ids_with_line() {
        // u32::MAX itself is unusable: node count would be max id + 1.
        for (text, bad_line, bad_value) in [
            ("0 1\n7 4294967295\n", 2, u64::from(u32::MAX)),
            ("99999999999 3\n", 1, 99_999_999_999),
        ] {
            match read_edge_list(text.as_bytes()) {
                Err(GraphIoError::IdOutOfRange { line, value, max }) => {
                    assert_eq!(line, bad_line);
                    assert_eq!(value, bad_value);
                    assert_eq!(max, u64::from(u32::MAX) - 1);
                }
                other => panic!("expected IdOutOfRange, got {other:?}"),
            }
        }
    }

    #[test]
    fn edge_list_rejects_negative_ids() {
        assert!(matches!(
            read_edge_list("0 -1\n".as_bytes()),
            Err(GraphIoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn edge_list_tolerates_extra_columns() {
        // some SNAP files carry weights/timestamps in a third column
        let g = read_edge_list("0 1 17\n1 2 99\n".as_bytes()).unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let h = read_binary(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTAGRPH________".to_vec();
        assert!(matches!(read_binary(&buf[..]), Err(GraphIoError::BadMagic)));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_oversized_node_count() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes()); // n
        buf.extend_from_slice(&0u64.to_le_bytes()); // m
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphIoError::Corrupt("node count exceeds u32"))
        ));
    }

    #[test]
    fn binary_rejects_nonmonotone_offsets() {
        // n = 2, m = 1, offsets [0, 5, 1]: last != m and not monotone
        let mut buf = MAGIC.to_vec();
        for x in [2u64, 1, 0, 5, 1] {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphIoError::Corrupt(_))
        ));
    }

    #[test]
    fn binary_huge_header_counts_fail_without_allocating() {
        // Header claims ~4 billion nodes and u64::MAX edges but carries no
        // data: the capped preallocation means this errors on EOF instead
        // of attempting a giant reservation.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&u64::from(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_binary(&buf[..]), Err(GraphIoError::Io(_))));
    }

    #[test]
    fn binary_roundtrip_empty() {
        let g = Graph::empty(3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
    }
}
