//! D01: hash collections. The analyzer flagged iteration only; clippy
//! rejects the types, so order-free uses need a reasoned `#[expect]` too.

pub mod for_loop_over_hashmap {
    use std::collections::HashMap; //~ clippy::disallowed_types

    pub fn emit() -> Vec<(u32, u32)> {
        let mut m: HashMap<u32, u32> = HashMap::new(); //~ clippy::disallowed_types
        m.insert(1, 2);
        let mut out = Vec::new();
        for (k, v) in &m {
            out.push((*k, *v));
        }
        out
    }
}

pub mod iter_collect_into_vec {
    use std::collections::HashSet; //~ clippy::disallowed_types

    pub fn emit(s: HashSet<u32>) -> Vec<u32> { //~ clippy::disallowed_types
        s.into_iter().collect()
    }
}

/// Stricter than D01: an order-free sink was accepted.
pub mod order_free_sinks {
    use std::collections::{BTreeMap, HashSet}; //~ clippy::disallowed_types

    pub fn ok(m: BTreeMap<u32, u32>, s: HashSet<u32>) -> (u32, bool, usize) { //~ clippy::disallowed_types
        let acc = m.values().sum();
        (acc, s.iter().any(|&x| x > 3), s.len())
    }
}

/// Stricter than D01: collecting back into a set was accepted.
pub mod collect_back_into_a_set {
    use std::collections::{BTreeSet, HashSet}; //~ clippy::disallowed_types

    pub fn ok(s: HashSet<u32>) -> BTreeSet<u32> { //~ clippy::disallowed_types
        s.into_iter().collect::<BTreeSet<u32>>()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn order_does_not_matter_here() {
        let s: HashSet<u32> = HashSet::new();
        for x in &s {
            let _ = x;
        }
    }
}
