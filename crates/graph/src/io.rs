//! Graph IO: whitespace-separated edge lists and DIMACS max-flow files.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId};
use crate::{GraphError, Result};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Read an edge list: one `u v [weight]` triple per line, `#`- or
/// `%`-prefixed lines are comments. Node ids may be arbitrary non-negative
/// integers (up to `u64::MAX`); they are compacted to `0..n` preserving
/// numeric order — no allocation proportional to the largest raw id, so
/// sparse id spaces (SNAP exports) are safe. Returns the graph (undirected
/// if `directed == false`).
///
/// Malformed input is an error, never a panic or a silently empty graph:
/// missing fields, non-integer or negative ids, ids that overflow `u64`,
/// non-finite weights, trailing tokens after the weight, and input with no
/// edges at all (including comment-only input) all return
/// [`GraphError::Parse`] / [`GraphError::InvalidWeight`].
///
/// Policy for degenerate edges (documented and tested): self-loops are
/// kept (one arc, as the CSR stores them), and duplicate edges — repeated
/// `(u, v)` lines, or both orientations of an undirected edge — are merged
/// by *summing* their weights, matching [`GraphBuilder`]'s multigraph
/// collapse.
pub fn read_edge_list<R: Read>(reader: R, directed: bool) -> Result<Graph> {
    let reader = BufReader::new(reader);
    let mut raw_edges: Vec<(u64, u64, f64)> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u: u64 = parts
            .next()
            .ok_or_else(|| parse_err(lineno, "missing source"))?
            .parse()
            .map_err(|_| parse_err(lineno, "bad source id (expected a non-negative integer)"))?;
        let v: u64 = parts
            .next()
            .ok_or_else(|| parse_err(lineno, "missing target"))?
            .parse()
            .map_err(|_| parse_err(lineno, "bad target id (expected a non-negative integer)"))?;
        let w: f64 = match parts.next() {
            Some(s) => s.parse().map_err(|_| parse_err(lineno, "bad weight"))?,
            None => 1.0,
        };
        if parts.next().is_some() {
            return Err(parse_err(lineno, "trailing tokens after 'u v [weight]'"));
        }
        if !w.is_finite() {
            return Err(GraphError::InvalidWeight { weight: w });
        }
        raw_edges.push((u, v, w));
    }
    if raw_edges.is_empty() {
        return Err(parse_err(0, "no edges in input"));
    }
    // Compact ids via sort + dedup (memory proportional to the edge count,
    // not to the largest raw id).
    let mut ids: Vec<u64> = Vec::with_capacity(raw_edges.len() * 2);
    for &(u, v, _) in &raw_edges {
        ids.push(u);
        ids.push(v);
    }
    ids.sort_unstable();
    ids.dedup();
    if ids.len() > u32::MAX as usize {
        return Err(parse_err(0, "more than u32::MAX distinct node ids"));
    }
    // qsc-audit: allow(no-panic-on-input) -- internal invariant, not an input condition: `ids` was built from exactly these raw endpoints four lines up, so the lookup cannot miss
    let remap = |raw: u64| ids.binary_search(&raw).expect("id collected above") as u32;
    let n = ids.len();
    let mut b = if directed {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    for (u, v, w) in raw_edges {
        b.add_edge(remap(u), remap(v), w);
    }
    Ok(b.build())
}

/// Read an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P, directed: bool) -> Result<Graph> {
    let f = std::fs::File::open(path)?;
    read_edge_list(f, directed)
}

/// Write a graph as an edge list (`u v weight` per line).
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<()> {
    writeln!(writer, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (u, v, w) in g.edges() {
        writeln!(writer, "{u} {v} {w}")?;
    }
    Ok(())
}

/// A parsed DIMACS max-flow problem: the capacity graph plus source and sink.
#[derive(Clone, Debug)]
pub struct DimacsMaxFlow {
    /// Directed capacity graph.
    pub graph: Graph,
    /// Source node.
    pub source: NodeId,
    /// Sink node.
    pub sink: NodeId,
}

/// Read a DIMACS max-flow file:
///
/// ```text
/// c comment
/// p max <nodes> <arcs>
/// n <id> s
/// n <id> t
/// a <from> <to> <capacity>
/// ```
///
/// Node ids in the file are 1-based; a `0` id, an id past the declared node
/// count, descriptor lines before the `p` line, a duplicate `p` line, a
/// negative / non-finite capacity, `source == sink`, or empty input all
/// return `Err` (never panic). Duplicate arcs are merged by summing their
/// capacities and self-loops are kept (they carry no s-t flow), matching
/// the edge-list reader's policy.
pub fn read_dimacs_max_flow<R: Read>(reader: R) -> Result<DimacsMaxFlow> {
    let reader = BufReader::new(reader);
    let mut n: Option<usize> = None;
    let mut source: Option<NodeId> = None;
    let mut sink: Option<NodeId> = None;
    let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('c') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        // 1-based node id bounded by the problem line's node count.
        let node_id = |field: &str, what: &str, bound: usize| -> Result<NodeId> {
            let id: usize = field
                .parse()
                .map_err(|_| parse_err(lineno, &format!("bad {what}")))?;
            if id == 0 {
                return Err(parse_err(lineno, &format!("{what} is 0 (ids are 1-based)")));
            }
            if id > bound {
                return Err(parse_err(
                    lineno,
                    &format!("{what} {id} exceeds the declared node count {bound}"),
                ));
            }
            Ok((id - 1) as NodeId)
        };
        match parts[0] {
            "p" => {
                if n.is_some() {
                    return Err(parse_err(lineno, "duplicate problem line"));
                }
                if parts.len() != 4 || parts[1] != "max" {
                    return Err(parse_err(lineno, "expected 'p max <n> <m>'"));
                }
                let count: usize = parts[2]
                    .parse()
                    .map_err(|_| parse_err(lineno, "bad node count"))?;
                if count > u32::MAX as usize {
                    return Err(parse_err(
                        lineno,
                        &format!("node count {count} exceeds u32::MAX"),
                    ));
                }
                parts[3]
                    .parse::<usize>()
                    .map_err(|_| parse_err(lineno, "bad arc count"))?;
                n = Some(count);
            }
            "n" => {
                let bound =
                    n.ok_or_else(|| parse_err(lineno, "node descriptor before problem line"))?;
                if parts.len() != 3 {
                    return Err(parse_err(lineno, "expected 'n <id> s|t'"));
                }
                let id = node_id(parts[1], "node id", bound)?;
                match parts[2] {
                    "s" => source = Some(id),
                    "t" => sink = Some(id),
                    other => return Err(parse_err(lineno, &format!("bad node role {other}"))),
                }
            }
            "a" => {
                let bound = n.ok_or_else(|| parse_err(lineno, "arc before problem line"))?;
                if parts.len() != 4 {
                    return Err(parse_err(lineno, "expected 'a <u> <v> <cap>'"));
                }
                let u = node_id(parts[1], "arc source", bound)?;
                let v = node_id(parts[2], "arc target", bound)?;
                let c: f64 = parts[3]
                    .parse()
                    .map_err(|_| parse_err(lineno, "bad capacity"))?;
                if !c.is_finite() || c < 0.0 {
                    return Err(GraphError::InvalidWeight { weight: c });
                }
                edges.push((u, v, c));
            }
            other => return Err(parse_err(lineno, &format!("unknown line type {other}"))),
        }
    }
    let n = n.ok_or_else(|| parse_err(0, "missing problem line"))?;
    let source = source.ok_or_else(|| parse_err(0, "missing source"))?;
    let sink = sink.ok_or_else(|| parse_err(0, "missing sink"))?;
    if source == sink {
        return Err(parse_err(0, "source and sink are the same node"));
    }
    let mut b = GraphBuilder::new_directed(n);
    for (u, v, c) in edges {
        b.add_edge(u, v, c);
    }
    Ok(DimacsMaxFlow {
        graph: b.build(),
        source,
        sink,
    })
}

/// Write a DIMACS max-flow file.
pub fn write_dimacs_max_flow<W: Write>(
    g: &Graph,
    source: NodeId,
    sink: NodeId,
    mut writer: W,
) -> Result<()> {
    let arcs: Vec<_> = g.arcs().collect();
    writeln!(writer, "c generated by qsc-graph")?;
    writeln!(writer, "p max {} {}", g.num_nodes(), arcs.len())?;
    writeln!(writer, "n {} s", source + 1)?;
    writeln!(writer, "n {} t", sink + 1)?;
    for (u, v, w) in arcs {
        writeln!(writer, "a {} {} {}", u + 1, v + 1, w)?;
    }
    Ok(())
}

fn parse_err(line: usize, message: &str) -> GraphError {
    GraphError::Parse {
        line: line + 1,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_round_trip() {
        let text = "# comment\n0 1 2.0\n1 2\n2 0 0.5\n";
        let g = read_edge_list(text.as_bytes(), false).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.weight(0, 1), 2.0);
        assert_eq!(g.weight(1, 2), 1.0);

        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(out.as_slice(), false).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.weight(2, 0), 0.5);
    }

    #[test]
    fn edge_list_compacts_sparse_ids() {
        let text = "10 20\n20 35\n";
        let g = read_edge_list(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_bad_line_errors() {
        let text = "0 x\n";
        assert!(read_edge_list(text.as_bytes(), true).is_err());
    }

    #[test]
    fn dimacs_round_trip() {
        let text = "c tiny\np max 4 5\nn 1 s\nn 4 t\na 1 2 3\na 1 3 2\na 2 4 2\na 3 4 3\na 2 3 1\n";
        let p = read_dimacs_max_flow(text.as_bytes()).unwrap();
        assert_eq!(p.graph.num_nodes(), 4);
        assert_eq!(p.graph.num_edges(), 5);
        assert_eq!(p.source, 0);
        assert_eq!(p.sink, 3);
        assert_eq!(p.graph.weight(0, 1), 3.0);

        let mut out = Vec::new();
        write_dimacs_max_flow(&p.graph, p.source, p.sink, &mut out).unwrap();
        let p2 = read_dimacs_max_flow(out.as_slice()).unwrap();
        assert_eq!(p2.graph.num_edges(), 5);
        assert_eq!(p2.source, 0);
        assert_eq!(p2.sink, 3);
    }

    #[test]
    fn dimacs_missing_source_errors() {
        let text = "p max 2 1\na 1 2 1\nn 1 s\n";
        assert!(read_dimacs_max_flow(text.as_bytes()).is_err());
    }

    #[test]
    fn edge_list_empty_input_errors() {
        assert!(read_edge_list("".as_bytes(), true).is_err());
        assert!(read_edge_list("# only comments\n% here too\n".as_bytes(), true).is_err());
    }

    #[test]
    fn edge_list_malformed_lines_error() {
        for text in [
            "0\n",                      // missing target
            "0 -1\n",                   // negative id
            "0 1 2.0 junk\n",           // trailing tokens
            "0 1 inf\n",                // non-finite weight
            "0 1 nan\n",                // non-finite weight
            "a b\n",                    // non-integer ids
            "0.5 1\n",                  // fractional id
            "99999999999999999999 1\n", // id overflows u64
        ] {
            assert!(
                read_edge_list(text.as_bytes(), true).is_err(),
                "accepted malformed input {text:?}"
            );
        }
    }

    #[test]
    fn edge_list_huge_sparse_ids_compact_without_blowup() {
        // Ids near u64::MAX must not allocate id-proportional memory.
        let text = format!("{} {}\n{} 7\n", u64::MAX - 1, u64::MAX - 5, u64::MAX - 5);
        let g = read_edge_list(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_self_loops_kept_and_duplicates_merged() {
        let text = "0 0 2.0\n0 1 1.0\n0 1 3.0\n1 0 4.0\n";
        let g = read_edge_list(text.as_bytes(), false).unwrap();
        // Self-loop kept as one edge; the three {0,1} lines merge by sum.
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.weight(0, 0), 2.0);
        assert_eq!(g.weight(0, 1), 8.0);
        assert_eq!(g.weight(1, 0), 8.0);
        // Directed: orientations stay distinct, same-orientation merges.
        let g = read_edge_list(text.as_bytes(), true).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.weight(0, 1), 4.0);
        assert_eq!(g.weight(1, 0), 4.0);
    }

    #[test]
    fn dimacs_zero_and_out_of_range_ids_error() {
        for text in [
            "p max 4 1\nn 0 s\nn 4 t\na 1 2 1\n",   // 0 id (1-based)
            "p max 4 1\nn 1 s\nn 5 t\na 1 2 1\n",   // id past node count
            "p max 4 1\nn 1 s\nn 4 t\na 0 2 1\n",   // arc source 0
            "p max 4 1\nn 1 s\nn 4 t\na 1 9 1\n",   // arc target past count
            "n 1 s\np max 4 1\nn 4 t\na 1 2 1\n",   // descriptor before p
            "p max 4 1\np max 4 1\nn 1 s\nn 4 t\n", // duplicate p
            "p max 4 1\nn 1 s\nn 1 t\na 1 2 1\n",   // source == sink
            "p max 4 1\nn 1 s\nn 4 t\na 1 2 -3\n",  // negative capacity
            "p max 4 1\nn 1 s\nn 4 t\na 1 2 inf\n", // non-finite capacity
            "",                                     // empty input
        ] {
            assert!(
                read_dimacs_max_flow(text.as_bytes()).is_err(),
                "accepted malformed input {text:?}"
            );
        }
    }

    #[test]
    fn dimacs_node_count_past_u32_is_rejected_at_the_problem_line() {
        // Id 2^32 + 1 would wrap to node 0 if the count were accepted.
        let text = "p max 4294967297 0\nn 4294967297 s\n";
        match read_dimacs_max_flow(text.as_bytes()) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 1);
                assert!(message.contains("node count"), "{message}");
            }
            other => panic!("expected a node-count parse error, got {other:?}"),
        }
        // u32::MAX itself is a valid count: parsing goes on to the next
        // missing piece.
        let text = "p max 4294967295 0\nn 4294967295 s\n";
        match read_dimacs_max_flow(text.as_bytes()) {
            Err(GraphError::Parse { message, .. }) => assert_eq!(message, "missing sink"),
            other => panic!("expected a missing-sink parse error, got {other:?}"),
        }
    }

    #[test]
    fn dimacs_duplicate_arcs_merge_and_self_loops_kept() {
        let text = "p max 3 4\nn 1 s\nn 3 t\na 1 2 2\na 1 2 3\na 2 2 1\na 2 3 4\n";
        let p = read_dimacs_max_flow(text.as_bytes()).unwrap();
        assert_eq!(p.graph.weight(0, 1), 5.0);
        assert_eq!(p.graph.weight(1, 1), 1.0);
        assert_eq!(p.graph.num_edges(), 3);
    }
}
