(** OpenQASM 2.0 emission and parsing.

    Emission is good enough to inspect compiled output or feed other
    toolchains; the repository's own executor consumes [Schedule.t]
    directly.  The parser accepts the dialect this library emits plus
    the common single-qubit zoo (u1/u2/u3 with literal angles, cz),
    enough to ingest circuits produced by mainstream compilers for
    these devices.  [parse] and [of_circuit] round-trip. *)

val of_circuit : Circuit.t -> string
(** Render a circuit as an OpenQASM 2.0 program. *)

val parse : string -> (Circuit.t, string) result
(** Parse an OpenQASM 2.0 program.  Supported statements: the version
    header, [include], one or more [qreg]/[creg] declarations (all
    qregs are concatenated into one index space), gate applications
    (h x y z s sdg t tdg rx ry rz u1 u2 u3 cx cz swap), [barrier]
    and [measure].  Angles must be numeric literals, optionally using
    [pi] and the forms [pi/2], [-pi/4], [2*pi].  [u1(l)] becomes
    [rz(l)]; [u3] is rejected unless it matches a u2/u1 special case.
    Classical registers and the measurement targets are recorded but
    the bit mapping is ignored (measurement order carries the
    information, as in this library's executor).  Errors carry the
    offending line. *)
