#include "il/ast.h"

namespace sidewinder::il {

SourceSpan
statementSpan(const Statement &stmt, std::size_t index)
{
    if (stmt.line > 0)
        return SourceSpan{stmt.line, stmt.column > 0 ? stmt.column : 1};
    return SourceSpan{static_cast<int>(index) + 1, 1};
}

} // namespace sidewinder::il
