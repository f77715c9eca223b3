//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline serde
//! stand-in.
//!
//! Implemented directly on `proc_macro::TokenStream` (the sandbox has no
//! `syn`/`quote`), supporting the shapes this workspace uses:
//!
//! * structs with named fields (every field is required on deserialize),
//! * tuple structs (newtypes serialize as their inner value, wider tuples as
//!   arrays, matching serde),
//! * enums with unit and one-field tuple variants, externally tagged exactly
//!   like serde's default representation (`"Variant"` / `{"Variant": value}`).
//!
//! It understands no `#[serde(...)]` argument: any on the type, a field or a
//! variant (`skip`, `default`, `rename`, …) makes it panic.  Generics are not
//! supported.  The derive panics with a clear message when it meets an
//! argument or shape it cannot handle, so failures are loud, not silent.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Variant {
    name: String,
    has_payload: bool,
}

enum Shape {
    Named(Vec<String>),
    Tuple(usize),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    shape: Shape,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Skip leading attributes and return the `#[serde(...)]` arguments among
/// them, trimmed, in order.
fn skip_attrs(tokens: &[TokenTree], mut pos: usize) -> (usize, Vec<String>) {
    let mut args = Vec::new();
    while matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = tokens.get(pos + 1) {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(list))) =
                (inner.first(), inner.get(1))
            {
                if id.to_string() == "serde" {
                    let text = list.stream().to_string();
                    args.extend(text.split(',').map(|a| a.trim().to_string()));
                }
            }
        }
        pos += 2;
    }
    (pos, args)
}

/// Panic on any `#[serde(...)]` argument, naming where it sits (`Type`,
/// `Type::field` or `Type::Variant`) and the argument.
fn reject_args(site: &str, args: &[String]) {
    if let Some(arg) = args.first() {
        panic!("serde derive stand-in: unsupported attribute `#[serde({arg})]` on `{site}`");
    }
}

/// Skip a `pub` / `pub(...)` visibility qualifier.
fn skip_vis(tokens: &[TokenTree], mut pos: usize) -> usize {
    if matches!(&tokens.get(pos), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        pos += 1;
        if matches!(&tokens.get(pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            pos += 1;
        }
    }
    pos
}

fn parse(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (mut pos, type_args) = skip_attrs(&tokens, 0);
    pos = skip_vis(&tokens, pos);

    let kind = match &tokens[pos] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde derive: expected `struct` or `enum`, found {other}"),
    };
    pos += 1;
    let name = match &tokens[pos] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde derive: expected type name, found {other}"),
    };
    pos += 1;
    if matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde derive stand-in does not support generic type `{name}`");
    }
    reject_args(&name, &type_args);

    let shape = match kind.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream(), &name))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            _ => panic!("serde derive stand-in does not support unit struct `{name}`"),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream(), &name))
            }
            _ => panic!("serde derive: malformed enum `{name}`"),
        },
        other => panic!("serde derive: cannot derive for `{other}`"),
    };
    Input { name, shape }
}

fn parse_named_fields(stream: TokenStream, type_name: &str) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let (next, args) = skip_attrs(&tokens, pos);
        pos = skip_vis(&tokens, next);
        let name = match &tokens[pos] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde derive: expected field name, found {other}"),
        };
        reject_args(&format!("{type_name}::{name}"), &args);
        pos += 1;
        assert!(
            matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ':'),
            "serde derive: expected `:` after field `{name}`"
        );
        pos += 1;
        // Consume the type: everything up to the next comma that is not
        // nested inside generic angle brackets (parens/brackets arrive as
        // single groups, so only `<`/`>` depth needs tracking).
        let mut angle_depth = 0i32;
        while pos < tokens.len() {
            match &tokens[pos] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    pos += 1;
                    break;
                }
                _ => {}
            }
            pos += 1;
        }
        fields.push(name);
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    for (i, tok) in tokens.iter().enumerate() {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                // A trailing comma ends the list without adding a field.
                ',' if angle_depth == 0 && i + 1 < tokens.len() => count += 1,
                _ => {}
            }
        }
    }
    count
}

fn parse_variants(stream: TokenStream, enum_name: &str) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        let (next, args) = skip_attrs(&tokens, pos);
        pos = next;
        let name = match &tokens[pos] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde derive: expected variant name in `{enum_name}`, found {other}"),
        };
        reject_args(&format!("{enum_name}::{name}"), &args);
        pos += 1;
        let mut has_payload = false;
        if let Some(TokenTree::Group(g)) = tokens.get(pos) {
            match g.delimiter() {
                Delimiter::Parenthesis => {
                    let n = count_tuple_fields(g.stream());
                    assert!(
                        n == 1,
                        "serde derive stand-in supports only one-field tuple variants \
                         (`{enum_name}::{name}` has {n})"
                    );
                    has_payload = true;
                    pos += 1;
                }
                Delimiter::Brace => {
                    panic!("serde derive stand-in does not support struct variant `{enum_name}::{name}`")
                }
                _ => {}
            }
        }
        if matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            pos += 1;
        }
        variants.push(Variant { name, has_payload });
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Input) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let mut pushes = String::new();
            for f in fields {
                pushes.push_str(&format!(
                    "__obj.push((\"{f}\".to_string(), ::serde::Serialize::serialize(&self.{f})));\n"
                ));
            }
            format!(
                "let mut __obj: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                 ::std::vec::Vec::new();\n{pushes}::serde::Value::Object(__obj)"
            )
        }
        Shape::Tuple(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                if v.has_payload {
                    arms.push_str(&format!(
                        "{name}::{0}(__x) => ::serde::Value::Object(vec![(\"{0}\".to_string(), \
                         ::serde::Serialize::serialize(__x))]),\n",
                        v.name
                    ));
                } else {
                    arms.push_str(&format!(
                        "{name}::{0} => ::serde::Value::Str(\"{0}\".to_string()),\n",
                        v.name
                    ));
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Input) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!("{f}: ::serde::field(__obj, \"{f}\")?,\n"));
            }
            format!(
                "let __obj = __value.as_object().ok_or_else(|| \
                 ::serde::Error::new(\"expected object for {name}\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n{inits}}})"
            )
        }
        Shape::Tuple(1) => {
            format!(
                "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__value)?))"
            )
        }
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::deserialize(&__arr[{i}])?"))
                .collect();
            format!(
                "let __arr = __value.as_array().ok_or_else(|| \
                 ::serde::Error::new(\"expected array for {name}\"))?;\n\
                 if __arr.len() != {n} {{\n\
                 return ::std::result::Result::Err(::serde::Error::new(\
                 \"wrong tuple length for {name}\"));\n}}\n\
                 ::std::result::Result::Ok({name}({}))",
                items.join(", ")
            )
        }
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut payload_arms = String::new();
            for v in variants {
                if v.has_payload {
                    payload_arms.push_str(&format!(
                        "\"{0}\" => ::std::result::Result::Ok({name}::{0}(\
                         ::serde::Deserialize::deserialize(__v)?)),\n",
                        v.name
                    ));
                } else {
                    unit_arms.push_str(&format!(
                        "\"{0}\" => ::std::result::Result::Ok({name}::{0}),\n",
                        v.name
                    ));
                }
            }
            format!(
                "match __value {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n{unit_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::new(format!(\
                 \"unknown variant `{{__other}}` of {name}\"))),\n}},\n\
                 ::serde::Value::Object(__o) if __o.len() == 1 => {{\n\
                 let (__k, __v) = &__o[0];\n\
                 match __k.as_str() {{\n{payload_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::new(format!(\
                 \"unknown variant `{{__other}}` of {name}\"))),\n}}\n}},\n\
                 __other => ::std::result::Result::Err(::serde::Error::new(format!(\
                 \"invalid value for {name}: {{__other:?}}\"))),\n}}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}
