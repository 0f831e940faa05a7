//! Range-coalescing planner: merge per-chunk byte ranges into few backend
//! gets.
//!
//! A multi-chunk `read_region` knows every chunk's byte range up front.
//! Issuing one `get` per chunk costs one round trip each — ruinous over a
//! network backend. CZS packs chunks contiguously, so the common case is
//! that k needed chunks form one contiguous byte run; when a cached chunk
//! punches a hole in the run, it is still cheaper to read through a small
//! hole than to split the request. The planner sorts the wanted ranges and
//! merges neighbours whose gap is at most `gap`, producing a list of
//! [`CoalescedGet`]s, each carrying the items it satisfies and where each
//! item's bytes sit inside the fetched buffer.

use std::ops::Range;

/// One caller-side item (e.g. a chunk index) and the absolute byte range
/// it needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeItem {
    /// Caller's identifier for the item (the chunk index, for the store).
    pub id: usize,
    /// Absolute byte range the item needs.
    pub range: Range<u64>,
}

/// One planned backend `get` covering one or more items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescedGet {
    /// The merged absolute byte range to fetch in a single `get`.
    pub range: Range<u64>,
    /// The items this fetch satisfies, each with the sub-range of the
    /// fetched buffer holding its bytes (`item.range` rebased to the
    /// merged range's start). Sorted by range start.
    pub items: Vec<(usize, Range<usize>)>,
}

/// Plan backend gets for `items`, merging ranges whose gap is ≤ `gap`
/// bytes.
///
/// Items may arrive in any order and may overlap; the plan is sorted by
/// byte offset. `gap = 0` merges only touching/overlapping ranges;
/// a larger threshold trades wasted bytes (read through small holes) for
/// fewer round trips. Empty input yields an empty plan; zero-length item
/// ranges are preserved (they land inside or between gets as their offset
/// dictates).
pub fn coalesce(items: &[RangeItem], gap: u64) -> Vec<CoalescedGet> {
    let mut sorted: Vec<&RangeItem> = items.iter().collect();
    sorted.sort_by_key(|it| (it.range.start, it.range.end));

    let mut plan: Vec<CoalescedGet> = Vec::new();
    for it in sorted {
        let start = it.range.start;
        let end = it.range.end.max(start);
        match plan.last_mut() {
            // Merge when the hole between the current run and this item is
            // within the threshold (overlap means no hole at all). A merge
            // only ever extends the run's end, so the run's start — the
            // rebase origin — is fixed the moment the run is created.
            Some(cur) if start.saturating_sub(cur.range.end) <= gap => {
                cur.range.end = cur.range.end.max(end);
                let base = cur.range.start;
                cur.items
                    .push((it.id, (start - base) as usize..(end - base) as usize));
            }
            _ => {
                plan.push(CoalescedGet {
                    range: start..end,
                    items: vec![(it.id, 0..(end - start) as usize)],
                });
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: usize, range: Range<u64>) -> RangeItem {
        RangeItem { id, range }
    }

    /// Adjacent (touching) ranges merge into one get with gap 0.
    #[test]
    fn adjacent_ranges_coalesce() {
        let plan = coalesce(&[item(0, 0..10), item(1, 10..20), item(2, 20..32)], 0);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].range, 0..32);
        assert_eq!(plan[0].items, vec![(0, 0..10), (1, 10..20), (2, 20..32)]);
    }

    /// Overlapping ranges merge and each item still maps to its own bytes.
    #[test]
    fn overlapping_ranges_coalesce() {
        let plan = coalesce(&[item(0, 0..16), item(1, 8..24)], 0);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].range, 0..24);
        assert_eq!(plan[0].items, vec![(0, 0..16), (1, 8..24)]);
    }

    /// Input order does not matter: the plan is sorted by byte offset.
    #[test]
    fn out_of_order_input_sorts_before_merging() {
        let plan = coalesce(&[item(2, 20..30), item(0, 0..10), item(1, 10..20)], 0);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].range, 0..30);
        assert_eq!(plan[0].items, vec![(0, 0..10), (1, 10..20), (2, 20..30)]);
    }

    /// A hole of exactly `gap` bytes merges; one byte more splits.
    #[test]
    fn gap_threshold_boundary() {
        // gap 4, hole of 4 → merge (read through the hole).
        let plan = coalesce(&[item(0, 0..10), item(1, 14..20)], 4);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].range, 0..20);
        assert_eq!(plan[0].items, vec![(0, 0..10), (1, 14..20)]);
        // gap 4, hole of 5 → two gets.
        let plan = coalesce(&[item(0, 0..10), item(1, 15..20)], 4);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].range, 0..10);
        assert_eq!(plan[1].range, 15..20);
        assert_eq!(plan[1].items, vec![(1, 0..5)]);
    }

    /// A single chunk is a single get covering exactly its range.
    #[test]
    fn single_item_passthrough() {
        let plan = coalesce(&[item(7, 100..164)], 1 << 16);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].range, 100..164);
        assert_eq!(plan[0].items, vec![(7, 0..64)]);
    }

    /// An empty region plans no gets at all.
    #[test]
    fn empty_input_empty_plan() {
        assert!(coalesce(&[], 1 << 16).is_empty());
    }

    /// Disjoint far-apart ranges never merge regardless of order.
    #[test]
    fn far_ranges_stay_split() {
        let plan = coalesce(&[item(1, 1000..1100), item(0, 0..100)], 64);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].range, 0..100);
        assert_eq!(plan[1].range, 1000..1100);
    }

    /// Gap accounting chains: a..b, hole, b+g..c, hole, c+g..d all merge.
    #[test]
    fn chained_gaps_merge_transitively() {
        let plan = coalesce(&[item(0, 0..10), item(1, 12..20), item(2, 22..30)], 2);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].range, 0..30);
    }
}
