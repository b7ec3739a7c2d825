//! Seeded op streams, key ownership and the expected-state model.
//!
//! Every connection owns the keys congruent to its index mod
//! [`CONNECTIONS`] and is the only writer of them, so the benchmark always
//! knows each key's last acknowledged value. The op stream of a connection is
//! a pure function of `(seed, workload, connection)`: the untraced run, the
//! traced TCP pass, the direct pass and the codec pass all see the same ops.

/// Client connections driving the server (one request in flight on each).
pub const CONNECTIONS: usize = 2;

/// Length of every value in bytes.
pub const VALUE_LEN: usize = 16;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100% PUT, uniform over 128 preloaded keys.
    PutHot,
    /// 90% snapshot GET (skewed) and 10% PUT over 128 keys.
    GetMostly,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        [Workload::PutHot, Workload::GetMostly]
            .into_iter()
            .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PutHot => "put_hot",
            Workload::GetMostly => "get_mostly",
        }
    }

    /// Preloaded (and only) keys.
    pub fn keys(self) -> usize {
        128
    }

    /// Share of GETs in the measured phase, in percent.
    pub fn get_pct(self) -> u64 {
        match self {
            Workload::PutHot => 0,
            Workload::GetMostly => 90,
        }
    }

    /// True if the measured phase issues GETs.
    pub fn has_gets(self) -> bool {
        self.get_pct() > 0
    }
}

/// Wire name of key `index`.
pub fn key_name(index: usize) -> String {
    format!("key-{index:05}")
}

/// Keys owned (and written only) by connection `conn`.
pub fn own_keys(keys: usize, conn: usize) -> impl Iterator<Item = usize> + Clone {
    (conn..keys).step_by(CONNECTIONS)
}

/// splitmix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A fresh 16-byte value.
    pub fn value(&mut self) -> String {
        format!("{:0width$x}", self.next_u64(), width = VALUE_LEN)
    }
}

fn stream_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The value key `index` holds after the preload.
pub fn preload_value(seed: u64, index: usize) -> String {
    Rng::new(stream_seed(seed, 0x10_0000 + index as u64)).value()
}

/// One request of the closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Put { key: usize, value: String },
    Get { key: usize },
}

/// The infinite op stream of one connection.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    workload: Workload,
    conn: usize,
    owned: u64,
    /// Set for a read-back stream: the rank of the next own key to GET.
    read_back: Option<u64>,
}

impl OpStream {
    pub fn new(seed: u64, workload: Workload, conn: usize) -> Self {
        OpStream {
            rng: Rng::new(stream_seed(seed, 1 + conn as u64)),
            workload,
            conn,
            owned: own_keys(workload.keys(), conn).count() as u64,
            read_back: None,
        }
    }

    /// Keys the connection owns.
    pub fn owned(&self) -> u64 {
        self.owned
    }

    /// GETs of the connection's own keys in order, cycling.
    pub fn read_back(workload: Workload, conn: usize) -> Self {
        OpStream {
            read_back: Some(0),
            ..OpStream::new(0, workload, conn)
        }
    }

    fn key(&self, rank: u64) -> usize {
        rank as usize * CONNECTIONS + self.conn
    }

    pub fn next_op(&mut self) -> Op {
        if let Some(rank) = self.read_back.as_mut() {
            let key = *rank as usize * CONNECTIONS + self.conn;
            *rank = (*rank + 1) % self.owned;
            return Op::Get { key };
        }
        if self.rng.below(100) < self.workload.get_pct() {
            // Skewed reads: the minimum of three uniform draws, so the
            // connection's lowest key is the hottest.
            let rank = self
                .rng
                .below(self.owned)
                .min(self.rng.below(self.owned))
                .min(self.rng.below(self.owned));
            Op::Get {
                key: self.key(rank),
            }
        } else {
            let rank = self.rng.below(self.owned);
            Op::Put {
                key: self.key(rank),
                value: self.rng.value(),
            }
        }
    }
}

/// Expected contents of the keys one connection owns (indexed by key; keys
/// of other connections are never consulted). Each key holds a list of the
/// values it may hold, `None` meaning absent. A reply settles the list to one
/// value; a PUT whose acknowledgement was lost may or may not have executed,
/// so it adds its value to the list until a later reply settles which.
#[derive(Debug, Clone)]
pub struct Model {
    values: Vec<Vec<Option<String>>>,
}

impl Model {
    /// The state right after the preload, restricted to `conn`'s keys.
    pub fn preloaded(seed: u64, keys: usize, conn: usize) -> Self {
        let mut values = vec![Vec::new(); keys];
        for key in own_keys(keys, conn) {
            values[key] = vec![Some(preload_value(seed, key))];
        }
        Model { values }
    }

    /// Checks an observed value of `key` and settles an uncertain key.
    /// Returns false on a mismatch. A key with no candidates must be absent.
    pub fn observe(&mut self, key: usize, seen: Option<&str>) -> bool {
        let candidates = &mut self.values[key];
        if candidates.is_empty() {
            return seen.is_none();
        }
        let ok = candidates.iter().any(|c| c.as_deref() == seen);
        if ok {
            *candidates = vec![seen.map(str::to_string)];
        }
        ok
    }

    /// Records an acknowledged PUT.
    pub fn acked(&mut self, key: usize, value: &str) {
        self.values[key] = vec![Some(value.to_string())];
    }

    /// Records a PUT whose outcome is unknown.
    pub fn unknown(&mut self, key: usize, value: &str) {
        let candidates = &mut self.values[key];
        if candidates.is_empty() {
            candidates.push(None);
        }
        candidates.push(Some(value.to_string()));
    }

    /// Merges another connection's model (disjoint keys).
    pub fn absorb(&mut self, other: Model) {
        for (mine, theirs) in self.values.iter_mut().zip(other.values) {
            if !theirs.is_empty() {
                *mine = theirs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_keep_to_own_keys() {
        for workload in [Workload::PutHot, Workload::GetMostly] {
            for conn in 0..CONNECTIONS {
                let mut a = OpStream::new(7, workload, conn);
                let mut b = OpStream::new(7, workload, conn);
                for _ in 0..1000 {
                    let op = a.next_op();
                    assert_eq!(op, b.next_op());
                    let key = match &op {
                        Op::Put { key, value } => {
                            assert_eq!(value.len(), VALUE_LEN);
                            *key
                        }
                        Op::Get { key } => *key,
                    };
                    assert!(key < workload.keys());
                    assert_eq!(key % CONNECTIONS, conn);
                }
            }
        }
        let mut a = OpStream::new(7, Workload::PutHot, 0);
        let mut b = OpStream::new(8, Workload::PutHot, 0);
        assert!((0..10).any(|_| a.next_op() != b.next_op()));
    }

    #[test]
    fn model_settles_uncertain_puts() {
        let mut m = Model::preloaded(1, 4, 0);
        assert!(m.observe(0, Some(&preload_value(1, 0))));
        m.unknown(0, "new");
        assert!(m.observe(0, Some("new")));
        assert!(!m.observe(0, Some(&preload_value(1, 0))));
        // Two lost acknowledgements in a row: either value (or the last
        // acknowledged one) may be there.
        for seen in ["new", "b", "c"] {
            let mut m2 = m.clone();
            m2.unknown(0, "b");
            m2.unknown(0, "c");
            assert!(m2.observe(0, Some(seen)));
            assert!(!m2.observe(0, Some("x")));
        }
        // A key never written must stay absent.
        let mut fresh = Model::preloaded(1, 4, 1);
        assert!(fresh.observe(0, None));
        fresh.unknown(0, "d");
        assert!(fresh.observe(0, None));
        fresh.unknown(0, "d");
        assert!(fresh.observe(0, Some("d")));
    }
}
