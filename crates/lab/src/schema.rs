//! The report schema. Each report type names its fields once, in a
//! `fields!` list: JSON keys in render order, each with its place in
//! the struct where the two differ (`sim_events = report.events`); a
//! flat struct is its own list. The list generates the type's [`Encode`]
//! impl, which the matrix report and the shard wire share, and for types
//! that cross the shard wire its [`Decode`] impl. Decoding is strict,
//! because shard files come from other processes and hosts: every listed
//! key must be present, every value must fit its field's type, and an
//! error names the key path.

use crate::json::Json;

/// A value with a canonical JSON form.
pub trait Encode {
    /// The value as JSON.
    fn encode(&self) -> Json;
}

/// A value that parses back from its canonical JSON form, such that
/// render → parse → decode → render reproduces the same bytes.
pub trait Decode: Sized {
    /// Parses the value, or says why `v` is not one.
    fn decode(v: &Json) -> Result<Self, String>;
}

/// `v`'s member `key`, which must be present.
pub(crate) fn member<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing {key:?}"))
}

/// `v`'s member `key`, decoded; errors name the key.
pub(crate) fn field<T: Decode>(v: &Json, key: &str) -> Result<T, String> {
    T::decode(member(v, key)?).map_err(|e| format!("{key:?}: {e}"))
}

/// Unsigned integers; narrower ones refuse out-of-range values rather
/// than wrap them.
macro_rules! uint {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }

        impl Decode for $t {
            fn decode(v: &Json) -> Result<Self, String> {
                let wide = v.as_u64().ok_or("is not an unsigned integer")?;
                <$t>::try_from(wide)
                    .map_err(|_| format!("{wide} is out of range for {}", stringify!($t)))
            }
        }
    )*};
}
uint!(u8, u64, usize);

/// JSON has no NaN: non-finite floats render as `null`, and `null`
/// decodes to NaN, so a NaN metric survives the trip byte-exactly.
impl Encode for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }
}

impl Decode for f64 {
    fn decode(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(f64::NAN),
            _ => Ok(v.as_f64().ok_or("is not a number")?),
        }
    }
}

impl Encode for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Encode for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Decode for String {
    fn decode(v: &Json) -> Result<Self, String> {
        Ok(v.as_str().ok_or("is not a string")?.to_string())
    }
}

/// `None` is `null`.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(v: &Json) -> Result<Self, String> {
        (*v != Json::Null).then(|| T::decode(v)).transpose()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or("is not an array")?.iter().enumerate();
        items
            .map(|(i, item)| T::decode(item).map_err(|e| format!("item {i}: {e}")))
            .collect()
    }
}

/// A named counter: `{"name": …, "value": …}`.
impl Encode for (String, u64) {
    fn encode(&self) -> Json {
        Json::obj(vec![("name", self.0.encode()), ("value", self.1.encode())])
    }
}

impl Decode for (String, u64) {
    fn decode(v: &Json) -> Result<Self, String> {
        Ok((field(v, "name")?, field(v, "value")?))
    }
}

/// Declares a report type's field list, in JSON key order. A flat type
/// declares it with the struct itself — `struct T: Encode + Decode { … }`
/// — each key its field's name. A type whose keys reach into nested
/// fields lists them apart: `impl Encode + Decode for T { key, key =
/// path.to.field, … }`. `Encode` alone renders only, for the types the
/// finalize pass owns, which no input may carry; `Decode` parses into
/// `T::default()` with each listed place overwritten.
macro_rules! fields {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident: $codec:ident $(+ $codecs:ident)* {
            $($(#[$fmeta:meta])* $fvis:vis $key:ident: $fty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $ty {
            $($(#[$fmeta])* $fvis $key: $fty,)*
        }

        $crate::schema::fields!(impl $codec $(+ $codecs)* for $ty { $($key),* });
    };
    (impl Encode for $ty:ty { $($key:ident $(= $($place:ident).+)?),* $(,)? }) => {
        impl $crate::schema::Encode for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![$((
                    stringify!($key).to_string(),
                    $crate::schema::Encode::encode(
                        &$crate::schema::fields!(@place self $key $($($place).+)?),
                    ),
                )),*])
            }
        }
    };
    (impl Encode + Decode for $ty:ty { $($key:ident $(= $($place:ident).+)?),* $(,)? }) => {
        $crate::schema::fields!(impl Encode for $ty { $($key $(= $($place).+)?),* });

        impl $crate::schema::Decode for $ty {
            fn decode(v: &$crate::json::Json) -> Result<Self, String> {
                let mut out = <$ty>::default();
                $($crate::schema::fields!(@place out $key $($($place).+)?) =
                    $crate::schema::field(v, stringify!($key))?;)*
                Ok(out)
            }
        }
    };
    (@place $base:ident $key:ident) => { $base.$key };
    (@place $base:ident $key:ident $($place:ident).+) => { $base.$($place).+ };
}
pub(crate) use fields;
