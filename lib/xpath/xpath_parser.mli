(** Parser for the XPath subset (abbreviated syntax).

    Supported: absolute/relative location paths, the axes of
    {!Xpath_ast.axis} (explicit [axis::] or the abbreviations [/],
    [//], [.], [..], [@]), name/[*]/[text()]/[node()] tests, and
    predicates with [position()], [last()], [count()], [contains()],
    [not()], comparisons, [and]/[or], string literals and numbers.

    [//] is parsed as the [descendant] axis (not expanded through
    [descendant-or-self::node()]), which matches NEXI's reading; the
    difference is only observable with positional predicates directly
    after [//]. *)

exception Syntax_error of { message : string; pos : int }

val parse : string -> Xpath_ast.path
(** @raise Syntax_error *)

