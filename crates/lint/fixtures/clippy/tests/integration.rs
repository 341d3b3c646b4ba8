//! Files under tests/ build as targets of their own, outside the library's
//! denies: panics are fine here.

#[test]
fn unwrap_is_fine_here() {
    let v: Option<u32> = Some(1);
    assert_eq!(v.unwrap(), 1);
}
