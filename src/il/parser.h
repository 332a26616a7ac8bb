/**
 * @file
 * Recursive-descent parser turning IL text into a Program AST.
 */

#ifndef SIDEWINDER_IL_PARSER_H
#define SIDEWINDER_IL_PARSER_H

#include <string>

#include "il/ast.h"

namespace sidewinder::il {

/**
 * Parse IL source text.
 *
 * Grammar (one statement per semicolon):
 *
 *     program   := statement* EOF
 *     statement := sources "->" target ";"
 *     sources   := source ("," source)*
 *     source    := IDENT | NUMBER(integer)
 *     target    := "OUT"
 *                | IDENT "(" "id" "=" NUMBER
 *                        ("," "params" "=" "{" numlist? "}")? ")"
 *     numlist   := NUMBER ("," NUMBER)*
 *
 * Parsing is purely syntactic; semantic checks (known algorithms,
 * reference ordering, single OUT) live in the analyzer's legality
 * walk, which validate() and analyze() run.
 *
 * @throws ParseError with line:column context on malformed input.
 */
Program parse(const std::string &source);

} // namespace sidewinder::il

#endif // SIDEWINDER_IL_PARSER_H
