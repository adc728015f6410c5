//! A uniform wrapper over FSM and native units for standalone (kernel-less)
//! execution — used by tests, examples and the software-only platform.

use crate::native::NativeUnit;
use crate::runtime::{CallerId, FsmUnitRuntime, LocalWires, UnitStats, WireStore};
use cosma_core::comm::CommUnitSpec;
use cosma_core::{EvalError, ServiceOutcome, Value};
use std::fmt;
use std::sync::Arc;

enum Inner {
    // Boxed: the FSM runtime is much larger than the native trait
    // object, and StandaloneUnit values move around in tests.
    Fsm(Box<FsmInner>),
    Native(Box<dyn NativeUnit>),
}

struct FsmInner {
    runtime: FsmUnitRuntime,
    wires: LocalWires,
}

/// One live communication unit, FSM-described or native, with in-process
/// state.
///
/// # Examples
///
/// ```
/// use cosma_comm::{StandaloneUnit, handshake_unit, CallerId};
/// use cosma_core::{Type, Value};
///
/// let mut unit = StandaloneUnit::from_spec(handshake_unit("link", Type::INT16));
/// let (p, c) = (CallerId(1), CallerId(2));
/// let mut got = None;
/// for _ in 0..20 {
///     unit.call(p, "put", &[Value::Int(7)])?;
///     let g = unit.call(c, "get", &[])?;
///     if g.done { got = g.result; break; }
///     unit.step()?;
/// }
/// assert_eq!(got, Some(Value::Int(7)));
/// # Ok::<(), cosma_core::EvalError>(())
/// ```
pub struct StandaloneUnit {
    name: String,
    inner: Inner,
}

impl fmt::Debug for StandaloneUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StandaloneUnit({})", self.name)
    }
}

impl StandaloneUnit {
    /// Wraps an FSM unit spec with its own local wires.
    #[must_use]
    pub fn from_spec(spec: Arc<CommUnitSpec>) -> Self {
        let wires = LocalWires::new(&spec);
        StandaloneUnit {
            name: spec.name().to_string(),
            inner: Inner::Fsm(Box::new(FsmInner {
                runtime: FsmUnitRuntime::new(spec),
                wires,
            })),
        }
    }

    /// Wraps a native unit.
    #[must_use]
    pub fn from_native(unit: Box<dyn NativeUnit>) -> Self {
        StandaloneUnit {
            name: unit.name().to_string(),
            inner: Inner::Native(unit),
        }
    }

    /// Unit name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One service activation.
    ///
    /// # Errors
    ///
    /// Propagates protocol and argument errors from the underlying unit.
    pub fn call(
        &mut self,
        caller: CallerId,
        service: &str,
        args: &[Value],
    ) -> Result<ServiceOutcome, EvalError> {
        match &mut self.inner {
            Inner::Fsm(f) => f.runtime.call(caller, service, args, &mut f.wires),
            Inner::Native(unit) => unit.call(caller, service, args),
        }
    }

    /// Repeatedly activates a service until it completes or `max_steps`
    /// activations elapse, stepping the unit's background activity between
    /// attempts. Returns the outcome of the completing call, or `None` if
    /// the budget ran out.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors.
    pub fn call_blocking(
        &mut self,
        caller: CallerId,
        service: &str,
        args: &[Value],
        max_steps: u32,
    ) -> Result<Option<ServiceOutcome>, EvalError> {
        for _ in 0..max_steps {
            let out = self.call(caller, service, args)?;
            if out.done {
                return Ok(Some(out));
            }
            self.step()?;
        }
        Ok(None)
    }

    /// One background activation (controller step / native step).
    ///
    /// # Errors
    ///
    /// Propagates controller evaluation errors.
    pub fn step(&mut self) -> Result<(), EvalError> {
        match &mut self.inner {
            Inner::Fsm(f) => f.runtime.step_controller(&mut f.wires),
            Inner::Native(unit) => {
                unit.step();
                Ok(())
            }
        }
    }

    /// Call statistics.
    #[must_use]
    pub fn stats(&self) -> UnitStats {
        match &self.inner {
            Inner::Fsm(f) => f.runtime.stats(),
            Inner::Native(unit) => unit.stats(),
        }
    }

    /// Reads a wire value, for FSM units.
    ///
    /// # Errors
    ///
    /// Returns an error for native units or unknown wires.
    pub fn wire(&self, name: &str) -> Result<Value, EvalError> {
        match &self.inner {
            Inner::Fsm(f) => {
                let id = f
                    .runtime
                    .spec()
                    .wire_id(name)
                    .ok_or_else(|| EvalError::Service(format!("no wire {name}")))?;
                f.wires.read_wire(id)
            }
            Inner::Native(_) => Err(EvalError::Service("native units have no wires".to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::handshake_unit;
    use crate::native::FifoChannel;
    use cosma_core::Type;

    #[test]
    fn fsm_and_native_share_interface() {
        let mut units = vec![
            StandaloneUnit::from_spec(handshake_unit("hs", Type::INT16)),
            StandaloneUnit::from_native(Box::new(FifoChannel::new("fifo", 4))),
        ];
        for unit in &mut units {
            let out = unit
                .call_blocking(CallerId(1), "put", &[Value::Int(5)], 50)
                .unwrap()
                .expect("put completes");
            assert!(out.done);
            let got = unit
                .call_blocking(CallerId(2), "get", &[], 50)
                .unwrap()
                .expect("get completes");
            assert_eq!(got.result, Some(Value::Int(5)));
        }
    }

    #[test]
    fn call_blocking_gives_none_on_budget() {
        let mut unit = StandaloneUnit::from_native(Box::new(FifoChannel::new("fifo", 1)));
        // Empty fifo: get never completes.
        let r = unit.call_blocking(CallerId(1), "get", &[], 5).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn wire_access_for_fsm_units_only() {
        let unit = StandaloneUnit::from_spec(handshake_unit("hs", Type::INT16));
        assert!(unit.wire("B_FULL").is_ok());
        assert!(unit.wire("NOPE").is_err());
        let native = StandaloneUnit::from_native(Box::new(FifoChannel::new("fifo", 1)));
        assert!(native.wire("B_FULL").is_err());
    }

    #[test]
    fn names_surface() {
        let unit = StandaloneUnit::from_spec(handshake_unit("hs", Type::INT16));
        assert_eq!(unit.name(), "hs");
    }
}
