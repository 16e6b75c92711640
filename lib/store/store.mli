(** One content-addressed store: the on-disk cache mechanism behind the
    synthesis cache ([Hlcs_synth.Synth_cache]), plus the in-memory
    promise table that fronts a store.

    {b Names.}  An entry is the file [<prefix><key>-<fingerprint>.bin]
    in the store's directory.  [key] is a {!key}: the hex MD5 of a
    canonical serialisation of the input (a design, a synthesis unit),
    so equal inputs share an entry and any change yields a fresh one.
    The fingerprint ({!fingerprint}) names the runtime that can read the
    entry: the compiler version plus whatever the consumer's format
    depends on.  The families in use:

    - [hlcs_sy_<key>-<fpr>.bin]: synthesis reports, keyed by the design
      and the synthesis options;
    - [hlcs_syu_<sig>-<fpr>.bin]: netlist fragments, keyed by the
      synthesis unit's content signature.

    {b Directories.}  The synthesis cache persists to [$HLCS_SYNTH_CACHE]
    when that names a directory, and stays in memory otherwise; the
    ["disk"] cache form of a run configuration falls back to
    [~/.cache/hlcs/synth], or to [<tmp>/hlcs-synth] without a [HOME]
    ({!default_dir}).  Opening a directory creates it if missing and
    probes it with a temporary file; an unusable directory opens as
    [None] and its consumer runs without a disk tier.

    {b Pruning.}  Opening a directory deletes every entry of the family
    whose fingerprint is not the current one.  Entries of an older
    compiler or format are never read again, so they are removed rather
    than left to accumulate.  No other eviction happens.

    {b Writes and corruption.}  An entry is written into a private
    staging file and renamed into place, so a concurrent reader (another
    process included) never sees a torn entry.  An entry that fails to
    load is deleted and reported missing, so its consumer rebuilds it.
    Marshalled blobs ({!write_blob}) carry a magic header and an MD5 of
    the payload, so truncation and bit flips are caught before
    unmarshalling.  No filesystem failure escapes: a write that fails
    leaves nothing behind and is ignored. *)

val key : string -> string
(** The hex MD5 of the bytes. *)

val fingerprint : string list -> string
(** Eight hex digits of the MD5 of the compiler version and the parts,
    joined with ['+']. *)

val env_dir : string -> string option
(** The directory an environment variable names, if set and non-empty. *)

val default_dir : env_var:string -> string -> string
(** [default_dir ~env_var name] is {!env_dir}[ env_var], else
    [~/.cache/hlcs/<name>], else [<tmp>/hlcs-<name>]. *)

(** {1 Stores} *)

type t
(** One family of entries in one directory. *)

val open_dir : prefix:string -> fingerprint:string -> string -> t option
(** Creates the directory if missing, checks that it is writable and
    prunes the family's foreign fingerprints; [None] if it is unusable. *)

val dir : t -> string

val path : t -> string -> string
(** The entry's file, present or not. *)

val read_blob : t -> string -> 'a option
(** A value {!write_blob} stored: the caller names its type, the prefix
    and fingerprint vouch for it.  Missing or corrupt entries are [None]
    (corrupt ones are deleted). *)

val write_blob : t -> string -> 'a -> unit
(** Marshals the value (no sharing) behind the magic and digest header.
    Failures are ignored: the entry is simply absent, and the staging
    file is removed. *)

(** {1 Promise tables} *)

type provenance =
  | Memo  (** already in the table (or being built by another caller) *)
  | Disk  (** loaded from the table's store *)
  | Built  (** built by this call *)

type 'a table
(** A memo from keys to values, safe to share between domains.  A key is
    built at most once: concurrent callers for a key in flight wait for
    its result.  A build that raises is remembered and re-raised to later
    callers; only successful values reach the disk. *)

val table : ?disk:t -> unit -> 'a table
(** With [disk], a miss reads the key's blob before building, and a
    built value is written back. *)

val get : 'a table -> string -> (unit -> 'a) -> 'a * provenance
(** [get tb key build]: the key's value and where it came from.  The
    disk read and [build] run outside the table's lock. *)

type counts = { memo : int; disk : int; built : int }
(** Answers per provenance, remembered failures included. *)

val counts : 'a table -> counts

val length : 'a table -> int
(** Keys in the table, completed or in flight. *)
