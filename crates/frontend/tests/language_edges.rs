//! Edge cases of the `zinc` language surface: parsing corners, semantic
//! errors, and tricky-but-legal programs, all checked through the
//! interpreter for end-to-end meaning.

use fpa_frontend::compile;
use fpa_ir::Interp;

fn run(src: &str) -> (String, i32) {
    let m = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let (out, _) = Interp::new(&m)
        .run()
        .unwrap_or_else(|e| panic!("run failed: {e}"));
    (out.output, out.exit_code)
}

fn fails_with(src: &str, needle: &str) {
    match compile(src) {
        Ok(_) => panic!("expected failure containing {needle:?}"),
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains(needle), "error {msg:?} lacks {needle:?}");
        }
    }
}

#[test]
fn operator_precedence_torture() {
    // C-style precedence: * over +, + over <<, << over <, < over ==,
    // == over &, & over ^, ^ over |, | over &&, && over ||.
    let (out, _) = run("
        int main() {
            print(1 + 2 * 3);            // 7
            print(1 << 2 + 1);           // 8
            print(7 & 3 == 3);           // 7 & 1 = 1
            print(1 | 2 ^ 2);            // 1 | 0 = 1
            print(0 && 1 || 1);          // 1
            print(2 < 3 == 1);           // 1
            print(-(3) * -(4));          // 12
            print(!(1 == 2));            // 1
            return 0;
        }
    ");
    assert_eq!(out, "7\n8\n1\n1\n1\n1\n12\n1\n");
}

#[test]
fn comments_and_whitespace() {
    let (out, _) = run("
        // leading comment
        int /* inline */ main() {
            /* multi
               line */
            print(1); // trailing
            return 0;
        }
    ");
    assert_eq!(out, "1\n");
}

#[test]
fn char_literals_and_printc() {
    let (out, _) = run(r"
        int main() {
            printc('h'); printc('i'); printc('\n');
            printc('\t'); printc('\\'); printc('\n');
            print('a');
            return 0;
        }
    ");
    assert_eq!(out, "hi\n\t\\\n97\n");
}

#[test]
fn deeply_nested_expressions() {
    let mut e = String::from("1");
    for _ in 0..60 {
        e = format!("({e} + 1)");
    }
    let (out, _) = run(&format!("int main() {{ print({e}); return 0; }}"));
    assert_eq!(out, "61\n");
}

#[test]
fn mutual_recursion() {
    // No forward declarations needed: signatures are collected in a
    // first pass, so mutual recursion works in any order.
    let (out, _) = run("
        int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
        int main() { print(is_even(10)); print(is_odd(7)); return 0; }
    ");
    assert_eq!(out, "1\n1\n");
}

#[test]
fn hex_and_negative_literals() {
    let (out, _) = run("
        int main() {
            print(0xFF);
            print(0x7FFFFFFF);
            print(0x7FFFFFFF + 1);   // wraps to INT_MIN
            print(-2147483647 - 1);
            return 0;
        }
    ");
    assert_eq!(out, "255\n2147483647\n-2147483648\n-2147483648\n");
}

#[test]
fn global_array_initializers_pad_with_zero() {
    let (out, _) = run("
        int a[5] = {10, 20};
        double d[3] = {1.5};
        int main() {
            print(a[0] + a[1] + a[2] + a[3] + a[4]);
            printd(d[0] + d[1] + d[2]);
            return 0;
        }
    ");
    assert_eq!(out, "30\n1.500000\n");
}

#[test]
fn for_loop_without_init_or_step() {
    let (out, _) = run("
        int main() {
            int i = 0;
            for (; i < 3;) { i = i + 1; }
            print(i);
            for (;;) { break; }
            return 0;
        }
    ");
    assert_eq!(out, "3\n");
}

#[test]
fn dangling_else_binds_to_nearest_if() {
    let (out, _) = run("
        int main() {
            int x = 0;
            if (1)
                if (0) { x = 1; }
                else { x = 2; }
            print(x);
            return 0;
        }
    ");
    assert_eq!(out, "2\n");
}

#[test]
fn locals_shadow_globals() {
    let (out, _) = run("
        int x = 100;
        int main() {
            int x = 5;
            print(x);
            return 0;
        }
    ");
    assert_eq!(out, "5\n");
}

#[test]
fn byte_array_stores_truncate() {
    let (out, _) = run("
        byte b[2];
        int main() {
            b[0] = 300;      // truncates to 44
            b[1] = -1;       // truncates to 255
            print(b[0]);
            print(b[1]);
            return 0;
        }
    ");
    assert_eq!(out, "44\n255\n");
}

#[test]
fn double_comparisons_in_all_contexts() {
    let (out, _) = run("
        int main() {
            double a = 1.5;
            double b = 2.5;
            if (a < b && b <= 2.5 && a != b && !(a == b)) { print(1); }
            print(a > b);
            print(a >= 1.5);
            return 0;
        }
    ");
    assert_eq!(out, "1\n0\n1\n");
}

#[test]
fn mixed_int_double_arithmetic_promotes() {
    let (out, _) = run("
        int main() {
            printd(1 + 2.5);
            printd(2.5 * 2);
            printd(7 / 2.0);
            return 0;
        }
    ");
    assert_eq!(out, "3.500000\n5.000000\n3.500000\n");
}

// ---- error reporting -----------------------------------------------------

#[test]
fn error_messages_are_precise() {
    fails_with("int main() { return y; }", "unknown name `y`");
    fails_with("int main() { q(); return 0; }", "unknown function `q`");
    fails_with(
        "int a[3]; int main() { a = 1; return 0; }",
        "cannot assign to array",
    );
    fails_with("int main() { int x; int x; return 0; }", "duplicate local");
    fails_with("int x; int x; int main() { return 0; }", "duplicate global");
    fails_with(
        "void f() {} void f() {} int main() { return 0; }",
        "duplicate function",
    );
    fails_with(
        "double d; int main() { print(d); return 0; }",
        "print expects int",
    );
    fails_with(
        "int main() { printd(1); return 0; }",
        "printd expects double",
    );
    fails_with("int main() { continue; }", "outside loop");
    fails_with(
        "int main() { int a[4]; return a[1.5]; }",
        "array index must be int",
    );
    fails_with(
        "int main() { if (2.5) { } return 0; }",
        "condition must be int",
    );
    fails_with(
        "double f() { return 0.0; } int main() { return f() % 2; }",
        "operator requires int",
    );
    fails_with(
        "double f() { return 0.0; } int main() { return f() + 0; }",
        "narrowing",
    );
}

#[test]
fn data_must_fit_below_the_stack() {
    // 16 MB of globals; 4 * 2^30 bytes, which wraps to 0 in 32 bits; and
    // a 4 GB data segment. A local array is a global too.
    fails_with(
        "int a[4000000]; int main() { a[3999999] = 1; return a[3999999]; }",
        "`a` ends at 0xf43400, past the end of memory at 0x800000",
    );
    fails_with(
        "int a[1073741824]; int main() { a[1] = 1; return a[1]; }",
        "`a` ends at 0x100001000",
    );
    fails_with(
        "int a[1000000000]; int main() { a[1] = 1; return a[1]; }",
        "`a` ends at 0xee6b3800",
    );
    fails_with(
        "int a[2096120]; int main() { byte b[33]; b[0] = 1; return b[0]; }",
        "`main.b` ends at 0x800001",
    );
    // Data that ends exactly at the stack top fits.
    let (_, code) = run("int a[2096120]; int main() { byte b[32]; b[31] = 3; return b[31]; }");
    assert_eq!(code, 3);
}

#[test]
fn parse_errors_carry_positions() {
    let e = compile("int main() {\n  int x = ;\n}").unwrap_err();
    assert!(e.to_string().contains("2:"), "line missing from: {e}");
}

#[test]
fn shift_semantics_match_mips() {
    // Shift counts mask to 5 bits; >> is arithmetic.
    let (out, _) = run("
        int main() {
            print(1 << 32);    // == 1 << 0
            print(-8 >> 1);    // arithmetic
            print(1 << 31);    // sign bit
            return 0;
        }
    ");
    assert_eq!(out, "1\n-4\n-2147483648\n");
}
