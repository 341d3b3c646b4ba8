//! Seeds: raw prints in library code; the same print in a test region is
//! exempt.

pub fn rebuild_index(entries: usize) {
    println!("rebuilding index with {entries} entries");
    eprintln!("index rebuild done");
}

#[cfg(test)]
mod tests {
    #[test]
    fn prints_in_tests_are_fine() {
        println!("debugging a test");
    }
}
