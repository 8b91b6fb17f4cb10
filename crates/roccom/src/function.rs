//! Dynamic function registration and invocation (`COM_call_function`).
//!
//! "Functions can be registered and invoked in the same way \[as data\].
//! This scheme allows great independence in design and development of
//! individual modules and hides the coding details of different research
//! subgroups" (§5). Modules register closures under dotted names
//! (`"rocblas.axpy"`); callers invoke them by name with dynamically typed
//! arguments, never linking against the providing module.

use std::collections::BTreeMap;

use rocio_core::{Result, RocError};

use crate::windows::Windows;

/// A dynamically typed argument/return value.
#[derive(Debug, Clone, PartialEq)]
pub enum ComValue {
    Unit,
    Int(i64),
    Float(f64),
    Str(String),
    Floats(Vec<f64>),
}

impl ComValue {
    /// The value as `i64`, or a mismatch error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            ComValue::Int(x) => Ok(*x),
            other => Err(RocError::Mismatch(format!("expected Int, got {other:?}"))),
        }
    }

    /// The value as `f64`, or a mismatch error.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            ComValue::Float(x) => Ok(*x),
            other => Err(RocError::Mismatch(format!("expected Float, got {other:?}"))),
        }
    }

    /// The value as `&str`, or a mismatch error.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            ComValue::Str(s) => Ok(s),
            other => Err(RocError::Mismatch(format!("expected Str, got {other:?}"))),
        }
    }
}

/// Registered function signature: mutable access to the data plane plus
/// dynamic arguments.
pub(crate) type ComFn<'a> = Box<dyn FnMut(&mut Windows, &[ComValue]) -> Result<ComValue> + Send + 'a>;

/// The function registry.
#[derive(Default)]
pub struct FunctionRegistry<'a> {
    functions: BTreeMap<String, ComFn<'a>>,
}

impl<'a> FunctionRegistry<'a> {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function under `name` (conventionally `module.function`).
    pub fn register(&mut self, name: &str, f: ComFn<'a>) -> Result<()> {
        if self.functions.contains_key(name) {
            return Err(RocError::AlreadyExists(format!("function '{name}'")));
        }
        self.functions.insert(name.to_string(), f);
        Ok(())
    }

    /// Invoke a function by name.
    pub fn call(&mut self, name: &str, windows: &mut Windows, args: &[ComValue]) -> Result<ComValue> {
        let f = self
            .functions
            .get_mut(name)
            .ok_or_else(|| RocError::NotFound(format!("function '{name}'")))?;
        f(windows, args)
    }

    /// Names of all registered functions, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.functions.keys().map(|s| s.as_str()).collect()
    }

    /// Whether a function is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{AttrSpec, PaneMesh};
    use rocio_core::{BlockId, DType};

    #[test]
    fn register_then_call() {
        let mut reg = FunctionRegistry::new();
        let mut ws = Windows::new();
        reg.register(
            "math.add",
            Box::new(|_w, args| Ok(ComValue::Int(args[0].as_int()? + args[1].as_int()?))),
        )
        .unwrap();
        let out = reg
            .call("math.add", &mut ws, &[ComValue::Int(2), ComValue::Int(3)])
            .unwrap();
        assert_eq!(out, ComValue::Int(5));
        assert!(reg.call("math.sub", &mut ws, &[]).is_err());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut reg = FunctionRegistry::new();
        reg.register("f.g", Box::new(|_, _| Ok(ComValue::Unit))).unwrap();
        assert!(matches!(
            reg.register("f.g", Box::new(|_, _| Ok(ComValue::Unit))),
            Err(RocError::AlreadyExists(_))
        ));
    }

    #[test]
    fn functions_can_mutate_windows() {
        let mut reg = FunctionRegistry::new();
        let mut ws = Windows::new();
        {
            let w = ws.create_window("fluid").unwrap();
            w.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
            w.register_pane(
                BlockId(1),
                PaneMesh::Structured {
                    dims: [1, 1, 1],
                    origin: [0.0; 3],
                    spacing: [1.0; 3],
                },
            )
            .unwrap();
        }
        // A "rocblas.fill" style function: set every value of an attribute.
        reg.register(
            "rocblas.fill",
            Box::new(|ws, args| {
                let win = args[0].as_str()?.to_string();
                let attr = args[1].as_str()?.to_string();
                let value = args[2].as_float()?;
                let w = ws.window_mut(&win)?;
                for pane in w.panes_mut() {
                    for x in pane.data_mut(&attr)?.as_f64_mut()? {
                        *x = value;
                    }
                }
                Ok(ComValue::Unit)
            }),
        )
        .unwrap();
        reg.call(
            "rocblas.fill",
            &mut ws,
            &[
                ComValue::Str("fluid".into()),
                ComValue::Str("p".into()),
                ComValue::Float(7.5),
            ],
        )
        .unwrap();
        assert_eq!(
            ws.window("fluid")
                .unwrap()
                .pane(BlockId(1))
                .unwrap()
                .data("p")
                .unwrap()
                .as_f64()
                .unwrap(),
            &[7.5]
        );
    }

    #[test]
    fn value_accessors_enforce_types() {
        assert!(ComValue::Int(1).as_float().is_err());
        assert!(ComValue::Float(1.0).as_str().is_err());
        assert!(ComValue::Str("s".into()).as_int().is_err());
        assert_eq!(ComValue::Str("s".into()).as_str().unwrap(), "s");
    }
}
