//! Hierarchical wall-clock profiler: RAII frames nest into per-thread
//! call paths, aggregated globally into a span tree with inclusive and
//! exclusive times.
//!
//! [`frame`] opens a named frame on the calling thread's stack; when the
//! frame drops, its inclusive time is charged to the semicolon-joined
//! path of every frame open above it (`mul;keyswitch;ntt_forward`) and
//! its own time minus its children's is the path's *exclusive* time —
//! exactly the folded-stack model used by flamegraph tooling, which
//! [`SpanTree::folded`] emits directly. The [`crate::spans`] kernel
//! spans are frames, so keyswitch, basis-convert and NTT work nests under
//! whichever evaluator op is running, and the tree is the one record of
//! their count, time and attribution ([`SpanTree::by_leaf`]).
//!
//! Pool worker threads have no frames of their own: the dispatcher hands
//! them its [`current_path`], and [`enter`] re-roots their frames under
//! it, so a chunk's kernels record the same path at every worker count.
//! A worker's time is not subtracted from the dispatcher's exclusive
//! time, since the two run concurrently.
//!
//! With the `enabled` feature off, [`Frame`] is a zero-sized inert type
//! and every entry point compiles to nothing. The [`SpanTree`] data
//! model compiles regardless so reporting tools build without the
//! feature.

/// Maximum distinct call paths retained; a frame at a new path past the
/// cap is charged to its leaf name in [`SpanTree::overflow`] instead.
pub const PROFILE_PATH_CAP: usize = 4096;

/// Aggregate timing for one call path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStat {
    /// Semicolon-joined frame names, outermost first
    /// (e.g. `mul;keyswitch;basis_convert`).
    pub path: String,
    /// Completed frames at this path.
    pub count: u64,
    /// Summed wall-clock nanoseconds including child frames.
    pub inclusive_ns: u64,
    /// Summed wall-clock nanoseconds excluding child frames.
    pub exclusive_ns: u64,
}

/// The aggregated span tree: every observed call path with inclusive and
/// exclusive times, sorted by path for deterministic output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanTree {
    /// Path rows, ascending lexicographic by path.
    pub paths: Vec<PathStat>,
    /// Frames whose path arrived after [`PROFILE_PATH_CAP`] was reached,
    /// one row per leaf name (`path` holds the leaf alone), ascending.
    /// Their caller is lost; their count and time still reach
    /// [`SpanTree::by_leaf`].
    pub overflow: Vec<PathStat>,
}

impl SpanTree {
    /// The row for an exact path, if observed.
    pub fn get(&self, path: &str) -> Option<&PathStat> {
        self.paths
            .binary_search_by(|p| p.path.as_str().cmp(path))
            .ok()
            .map(|i| &self.paths[i])
    }

    /// `(count, inclusive_ns)` summed over every frame named `name`,
    /// whatever called it: the path rows ending in `name` plus its
    /// [`SpanTree::overflow`] row.
    pub fn by_leaf(&self, name: &str) -> (u64, u64) {
        self.paths
            .iter()
            .chain(&self.overflow)
            .filter(|p| p.path.rsplit(';').next() == Some(name))
            .fold((0, 0), |(count, ns), p| {
                (count + p.count, ns.saturating_add(p.inclusive_ns))
            })
    }

    /// Flamegraph-compatible folded-stack output: one line per path,
    /// `path<space>exclusive_ns`, sorted by path. Zero-weight paths are
    /// kept so the tree shape is complete.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            out.push_str(&p.path);
            out.push(' ');
            out.push_str(&p.exclusive_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders a fixed-width attribution table (inclusive/exclusive
    /// milliseconds per path) for terminal reports.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:>10} {:>12} {:>12}  path\n",
            "count", "incl ms", "excl ms"
        );
        for p in &self.paths {
            out.push_str(&format!(
                "{:>10} {:>12.3} {:>12.3}  {}\n",
                p.count,
                p.inclusive_ns as f64 / 1e6,
                p.exclusive_ns as f64 / 1e6,
                p.path,
            ));
        }
        out
    }
}

#[cfg(feature = "enabled")]
mod store {
    use super::{PathStat, SpanTree, PROFILE_PATH_CAP};
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::time::Instant;

    struct StackEntry {
        name: &'static str,
        child_ns: u64,
    }

    thread_local! {
        static STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
    }

    /// Per-row accumulator: (count, inclusive ns, exclusive ns).
    type Row = (u64, u64, u64);

    #[derive(Default)]
    struct Totals {
        paths: HashMap<String, Row>,
        overflow: HashMap<&'static str, Row>,
    }

    static TREE: Mutex<Option<Totals>> = Mutex::new(None);

    pub fn open(name: &'static str) -> Instant {
        STACK.with(|s| s.borrow_mut().push(StackEntry { name, child_ns: 0 }));
        Instant::now()
    }

    pub fn close(start: Instant) {
        let inclusive = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let closed = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // An unbalanced close (frame forgotten across threads) drops
            // the measurement rather than corrupt the tree.
            let entry = stack.pop()?;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(inclusive);
            }
            let mut path = String::with_capacity(16 * (stack.len() + 1));
            for e in stack.iter() {
                path.push_str(e.name);
                path.push(';');
            }
            path.push_str(entry.name);
            Some((path, entry.name, entry.child_ns))
        });
        let Some((path, leaf, child_ns)) = closed else {
            return;
        };
        let exclusive = inclusive.saturating_sub(child_ns);
        let mut guard = TREE.lock().unwrap_or_else(|e| e.into_inner());
        let totals = guard.get_or_insert_with(Totals::default);
        let full = totals.paths.len() >= PROFILE_PATH_CAP;
        let row = match totals.paths.get_mut(&path) {
            Some(row) => row,
            None if full => totals.overflow.entry(leaf).or_default(),
            None => totals.paths.entry(path).or_default(),
        };
        row.0 += 1;
        row.1 = row.1.saturating_add(inclusive);
        row.2 = row.2.saturating_add(exclusive);
    }

    pub fn current_path() -> Vec<&'static str> {
        STACK.with(|s| s.borrow().iter().map(|e| e.name).collect())
    }

    /// Pushes `path` as untimed entries if the stack is empty; returns
    /// whether it did.
    pub fn enter(path: &[&'static str]) -> bool {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if !stack.is_empty() {
                return false;
            }
            stack.extend(path.iter().map(|&name| StackEntry { name, child_ns: 0 }));
            true
        })
    }

    pub fn leave() {
        STACK.with(|s| s.borrow_mut().clear());
    }

    fn rows<K: AsRef<str>>(map: &HashMap<K, Row>) -> Vec<PathStat> {
        let mut rows: Vec<PathStat> = map
            .iter()
            .map(|(path, &(count, inclusive_ns, exclusive_ns))| PathStat {
                path: path.as_ref().to_string(),
                count,
                inclusive_ns,
                exclusive_ns,
            })
            .collect();
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        rows
    }

    fn to_tree(totals: &Totals) -> SpanTree {
        SpanTree {
            paths: rows(&totals.paths),
            overflow: rows(&totals.overflow),
        }
    }

    pub fn snapshot() -> SpanTree {
        let guard = TREE.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_ref().map(to_tree).unwrap_or_default()
    }

    pub fn take() -> SpanTree {
        let mut guard = TREE.lock().unwrap_or_else(|e| e.into_inner());
        guard.take().as_ref().map(to_tree).unwrap_or_default()
    }

    pub fn reset() {
        let mut guard = TREE.lock().unwrap_or_else(|e| e.into_inner());
        *guard = None;
    }
}

/// An open RAII profiler frame; charges its path on drop. Zero-sized and
/// inert with the `enabled` feature off.
#[derive(Debug)]
pub struct Frame {
    #[cfg(feature = "enabled")]
    live: Option<std::time::Instant>,
}

/// Opens a named frame on the calling thread's profile stack. The name
/// must be a static string (op or span kind names are). If telemetry is
/// not live at open time, the frame is inert.
#[inline]
pub fn frame(name: &'static str) -> Frame {
    #[cfg(feature = "enabled")]
    {
        Frame {
            live: if crate::enabled() {
                Some(store::open(name))
            } else {
                None
            },
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        Frame {}
    }
}

#[cfg(feature = "enabled")]
impl Drop for Frame {
    fn drop(&mut self) {
        if let Some(start) = self.live.take() {
            store::close(start);
        }
    }
}

/// The calling thread's open frame names, outermost first (feature off:
/// empty). A dispatcher captures this to hand to [`enter`] on the
/// threads that run its work.
pub fn current_path() -> Vec<&'static str> {
    #[cfg(feature = "enabled")]
    {
        store::current_path()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Re-roots the calling thread's frames under `path` until the returned
/// guard drops. If the thread has no open frame, `path` is pushed as
/// untimed entries, so frames opened meanwhile record as `path;…`; a
/// thread with open frames keeps its own stack. Feature off: inert.
#[inline]
pub fn enter(path: &[&'static str]) -> PathGuard {
    #[cfg(feature = "enabled")]
    {
        PathGuard {
            entered: store::enter(path),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = path;
        PathGuard {}
    }
}

/// Restores the empty frame stack that [`enter`] found, on drop.
#[derive(Debug)]
pub struct PathGuard {
    #[cfg(feature = "enabled")]
    entered: bool,
}

#[cfg(feature = "enabled")]
impl Drop for PathGuard {
    fn drop(&mut self) {
        if self.entered {
            store::leave();
        }
    }
}

/// A copy of the aggregated span tree, leaving the aggregator in place
/// (feature off: an empty tree).
pub fn snapshot() -> SpanTree {
    #[cfg(feature = "enabled")]
    {
        store::snapshot()
    }
    #[cfg(not(feature = "enabled"))]
    {
        SpanTree::default()
    }
}

/// Drains the aggregator, returning the tree accumulated since the last
/// [`take`] (feature off: an empty tree). The kernel counters derived
/// from the tree ([`crate::counters::Counter::span_kind`]) read zero
/// afterwards.
pub fn take() -> SpanTree {
    #[cfg(feature = "enabled")]
    {
        store::take()
    }
    #[cfg(not(feature = "enabled"))]
    {
        SpanTree::default()
    }
}

/// Clears the aggregator, and with it the tree-derived kernel counters.
/// Open frames on any thread keep their stacks and will record into the
/// fresh aggregator when they close.
pub fn reset() {
    #[cfg(feature = "enabled")]
    store::reset();
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    use std::sync::{Mutex, MutexGuard};

    // These tests use globally unique frame names and serialize on one
    // lock, since the path-cap test fills and then resets the global
    // aggregator.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn nested_frames_fold_into_paths_with_exclusive_times() {
        let _serial = lock();
        crate::set_enabled(true);
        {
            let _outer = frame("outer_test_frame");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = frame("inner_test_frame");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let tree = snapshot();
        let outer = tree.get("outer_test_frame").expect("outer path");
        let inner = tree
            .get("outer_test_frame;inner_test_frame")
            .expect("inner path");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.inclusive_ns >= inner.inclusive_ns);
        assert!(outer.exclusive_ns <= outer.inclusive_ns);
        assert!(outer.exclusive_ns <= outer.inclusive_ns - inner.inclusive_ns + 1_000_000);
        let folded = tree.folded();
        assert!(folded.contains("outer_test_frame;inner_test_frame "));
    }

    #[test]
    fn sibling_frames_share_a_path_row() {
        let _serial = lock();
        crate::set_enabled(true);
        {
            let _outer = frame("sib_outer");
            for _ in 0..3 {
                let _inner = frame("sib_inner");
            }
        }
        let tree = snapshot();
        assert_eq!(tree.get("sib_outer;sib_inner").expect("row").count, 3);
    }

    #[test]
    fn frames_past_the_path_cap_still_count_by_leaf() {
        let _serial = lock();
        crate::set_enabled(true);
        reset();
        // Each root adds two paths (`root` and `root;cap_leaf`), so the
        // cap is reached halfway through and the rest overflow.
        let roots = PROFILE_PATH_CAP + 10;
        for i in 0..roots {
            let name: &'static str = Box::leak(format!("cap_root_{i}").into_boxed_str());
            let _root = frame(name);
            let _leaf = frame("cap_leaf");
        }
        let tree = snapshot();
        reset();
        assert_eq!(tree.paths.len(), PROFILE_PATH_CAP);
        let overflow = tree.overflow.iter().find(|p| p.path == "cap_leaf");
        assert!(overflow.is_some_and(|p| p.count > 0));
        let (count, inclusive_ns) = tree.by_leaf("cap_leaf");
        assert_eq!(count, roots as u64);
        let rows = tree.paths.iter().chain(&tree.overflow);
        let leaf_ns: u64 = rows
            .filter(|p| p.path.ends_with("cap_leaf"))
            .map(|p| p.inclusive_ns)
            .sum();
        assert_eq!(inclusive_ns, leaf_ns);
        assert_eq!(tree.by_leaf("cap_root_0"), {
            let row = tree.get("cap_root_0").expect("first root is retained");
            (row.count, row.inclusive_ns)
        });
    }

    #[test]
    fn entered_path_roots_the_frames_of_an_empty_stack() {
        let _serial = lock();
        crate::set_enabled(true);
        let path = {
            let _op = frame("enter_op");
            current_path()
        };
        assert_eq!(path, ["enter_op"]);
        std::thread::spawn(move || {
            {
                let _path = enter(&path);
                let _kernel = frame("enter_kernel");
            }
            assert!(current_path().is_empty(), "the guard restores the stack");
        })
        .join()
        .expect("worker");
        {
            // A thread with open frames keeps its own stack.
            let _own = frame("enter_own");
            let _path = enter(&["enter_op"]);
            let _kernel = frame("enter_kernel");
        }
        let tree = snapshot();
        assert_eq!(tree.get("enter_op;enter_kernel").expect("row").count, 1);
        assert_eq!(tree.get("enter_own;enter_kernel").expect("row").count, 1);
        assert!(tree.get("enter_kernel").is_none());
        assert_eq!(tree.by_leaf("enter_kernel").0, 2);
    }
}
