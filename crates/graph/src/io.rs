//! Plain-text edge-list IO.
//!
//! Format: one `u v` pair per line (whitespace separated), `#`-prefixed
//! comment lines ignored — the format used by SNAP dumps, which the paper's
//! `tweet` dataset comes from.

use crate::builder::{DedupPolicy, GraphBuilder};
use crate::csr::DiGraph;
use crate::{GraphError, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Reads an edge list from any reader.
pub fn read_edge_list<R: Read>(reader: R, policy: DedupPolicy) -> Result<DiGraph> {
    let mut builder = GraphBuilder::with_policy(policy);
    let mut buf = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if buf.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let u = parse_node(it.next(), lineno)?;
        let v = parse_node(it.next(), lineno)?;
        builder.add_edge(u, v);
    }
    builder.build()
}

fn parse_node(token: Option<&str>, line: usize) -> Result<u32> {
    let tok = token.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two node ids".to_string(),
    })?;
    tok.parse::<u32>().map_err(|e| GraphError::Parse {
        line,
        message: format!("bad node id {tok:?}: {e}"),
    })
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P, policy: DedupPolicy) -> Result<DiGraph> {
    read_edge_list(std::fs::File::open(path)?, policy)
}

/// Writes the graph as an edge list with a statistics header comment.
pub fn write_edge_list<W: Write>(graph: &DiGraph, writer: W) -> Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(
        out,
        "# nodes {} edges {}",
        graph.node_count(),
        graph.edge_count()
    )?;
    for e in graph.edges() {
        writeln!(out, "{} {}", e.source, e.target)?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut bytes = Vec::new();
        write_edge_list(&g, &mut bytes).unwrap();
        let g2 = read_edge_list(&bytes[..], DedupPolicy::KeepAll).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\n0 1\n# mid\n1 2\n";
        let g = read_edge_list(text.as_bytes(), DedupPolicy::Simple).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn reports_parse_error_with_line() {
        let text = "0 1\nnot a line\n";
        let err = read_edge_list(text.as_bytes(), DedupPolicy::Simple).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn missing_second_token() {
        let err = read_edge_list("42\n".as_bytes(), DedupPolicy::Simple).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn tabs_and_multiple_spaces() {
        let g = read_edge_list("0\t1\n1   2\n".as_bytes(), DedupPolicy::Simple).unwrap();
        assert_eq!(g.edge_count(), 2);
    }
}
