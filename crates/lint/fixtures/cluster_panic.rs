//! Fixture: cluster-no-panic corpus. Never compiled — linted by the
//! self-tests under cluster, service and trace paths (rule fires) and a sim
//! path (it does not).

fn flagged_unwrap(x: Option<u32>) -> u32 {
    x.unwrap() // MARK: flagged-unwrap
}

fn flagged_expect(x: Option<u32>) -> u32 {
    x.expect("present") // MARK: flagged-expect
}

fn flagged_macro(x: u32) -> u32 {
    match x {
        0 => panic!("zero"), // MARK: flagged-panic
        other => other,
    }
}

fn flagged_unreachable(x: u32) -> u32 {
    match x {
        0 => unreachable!("never zero"), // MARK: flagged-unreachable
        other => other,
    }
}

fn allowed_expect(history: &[u32]) -> u32 {
    // kyoto-lint: allow(cluster-no-panic): the caller pushed an element on the line above this call
    *history.last().expect("just pushed") // MARK: allowed-expect
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let value: Option<u32> = Some(1);
        assert_eq!(value.unwrap(), 1); // MARK: test-unwrap
    }
}
