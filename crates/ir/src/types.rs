//! Register types.

use std::fmt;

/// The type of a virtual register.
///
/// `Int` covers both integer data and addresses (the machine is a 32-bit
/// word machine); `Double` is IEEE-754 binary64, the only floating-point
/// type (the paper's trend note: "the current trend is to make both integer
/// and floating-point data 64 bits wide").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 32-bit two's-complement integer (also used for addresses).
    Int,
    /// 64-bit IEEE-754 floating point.
    Double,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => f.write_str("int"),
            Ty::Double => f.write_str("double"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(Ty::Int.to_string(), "int");
        assert_eq!(Ty::Double.to_string(), "double");
    }
}
