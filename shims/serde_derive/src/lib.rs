//! Offline stand-in for `serde_derive`, written against the bare
//! `proc_macro` API (no `syn`/`quote`, which are unavailable offline).
//!
//! Supported input shape — exactly what this workspace needs: non-generic
//! structs with named fields, every field encoded under its own name.
//!
//! Anything else (generics, tuple structs, enums, `#[serde(..)]`
//! attributes) panics at expansion time with a clear message rather than
//! encoding silently.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A brace struct: its name and its field names, in declaration order.
struct Item {
    name: String,
    fields: Vec<String>,
}

/// Derives the serde shim's `Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Item { name, fields } = parse_item(input);
    let mut body = String::new();
    body.push_str("__out.push('{');\nlet mut __first = true;\n");
    for f in &fields {
        body.push_str(&format!(
            "::serde::__ser_key(__out, &mut __first, \"{f}\");\n\
             ::serde::Serialize::serialize_json(&self.{f}, __out);\n"
        ));
    }
    body.push_str("let _ = __first;\n__out.push('}');");
    let src = format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize_json(&self, __out: &mut ::std::string::String) {{\n{body}\n}}\n}}"
    );
    src.parse()
        .expect("serde shim derive: generated code must parse")
}

/// Derives the serde shim's `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Item { name, fields } = parse_item(input);
    let inits: String = fields
        .iter()
        .map(|f| format!("{f}: ::serde::__de_field(__v, \"{name}\", \"{f}\")?,\n"))
        .collect();
    let src = format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn deserialize_json(__v: &::serde::Value) \
         -> ::std::result::Result<Self, ::serde::Error> {{\n\
         ::std::result::Result::Ok({name} {{\n{inits}}})\n}}\n}}"
    );
    src.parse()
        .expect("serde shim derive: generated code must parse")
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attributes(&tokens, 0);
    i = skip_visibility(&tokens, i);
    let kind = ident_at(&tokens, i, "expected `struct`");
    let name = ident_at(&tokens, i + 1, "expected a type name");
    if kind != "struct" {
        panic!("serde shim derive: `{kind} {name}` is not supported (brace structs only)");
    }
    i += 2;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic type `{name}` is not supported");
        }
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => panic!(
            "serde shim derive: `{name}` must be a brace struct \
             (tuple/unit shapes are not supported)"
        ),
    };
    Item {
        name,
        fields: parse_fields(body),
    }
}

fn ident_at(tokens: &[TokenTree], i: usize, msg: &str) -> String {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: {msg}, got {other:?}"),
    }
}

/// Steps past `#[..]` attributes from `i`, rejecting `#[serde(..)]`: the
/// shim implements none of its options, so ignoring one would change the
/// encoding silently.
fn skip_attributes(tokens: &[TokenTree], mut i: usize) -> usize {
    while let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
            if let Some(TokenTree::Ident(id)) = g.stream().into_iter().next() {
                if id.to_string() == "serde" {
                    panic!("serde shim derive: unsupported #[{}]", g.stream());
                }
            }
        }
        i += 2;
    }
    i
}

/// Steps past `pub` or `pub(..)` at `i`.
fn skip_visibility(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Parses `attr* vis? name ':' type (',' | end)` repeatedly.
fn parse_fields(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attributes(&tokens, i);
        i = skip_visibility(&tokens, i);
        let name = ident_at(&tokens, i, "expected a field name");
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => panic!("serde shim derive: expected ':' after field `{name}`"),
        }
        // Skip the type: consume until a ',' at angle-bracket depth 0.
        // The '>' of an `->` (fn-pointer/closure return type) is not an
        // angle bracket; track the preceding joint '-' to skip it.
        let mut angle_depth = 0i32;
        let mut prev_joint_minus = false;
        while let Some(t) = tokens.get(i) {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' if !prev_joint_minus => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                }
                prev_joint_minus = p.as_char() == '-' && p.spacing() == proc_macro::Spacing::Joint;
            } else {
                prev_joint_minus = false;
            }
            if angle_depth < 0 {
                panic!("serde shim derive: unbalanced '>' in type of field `{name}`");
            }
            i += 1;
        }
        i += 1; // past the ',' (or past the end)
        fields.push(name);
    }
    fields
}
