package sqldb

// Stmt is any parsed SQL statement.
type Stmt interface{ stmt() }

// ColumnDef defines one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Kind       Kind
	NotNull    bool
	PrimaryKey bool
}

// CreateTableStmt is CREATE TABLE name (col type [constraints], ...).
type CreateTableStmt struct {
	Name string
	Cols []ColumnDef
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON table (col).
type CreateIndexStmt struct {
	Name   string
	Table  string
	Col    string
	Unique bool
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr

	// plan caches column binding and the compiled value expressions (see
	// UpdateStmt.plan for the safety argument).
	plan *insertPlan
}

// Assign is one SET col = expr clause.
type Assign struct {
	Col  string
	Expr Expr
}

// UpdateStmt is UPDATE table SET ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Sets  []Assign
	Where Expr

	// plan caches the access path and the compiled WHERE and SET clauses.
	// Each AST belongs to exactly one DB (via its prepared-statement cache)
	// and is only executed under that DB's mutex; the plan revalidates
	// against db+epoch on use. Everything else in the AST is immutable after
	// Parse.
	plan *updatePlan
}

// TableRef names a table with an optional alias in a FROM clause.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the alias if present, else the table name.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// SelectItem is one output column: an expression or a bare star.
type SelectItem struct {
	Star bool
	Expr Expr
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query over one or more joined tables.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	// JoinOn holds the ON condition that joined each table after the first;
	// JoinOn[0] is nil.
	JoinOn  []Expr
	Where   Expr
	OrderBy []OrderKey
	Limit   int // -1 when absent

	// plan caches table binding, access-path selection and every compiled
	// expression (see UpdateStmt.plan for the safety argument).
	plan *selectPlan
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// Expr is any SQL expression.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct {
	Val Value
}

// Placeholder is a ? parameter, numbered left to right from 0.
type Placeholder struct {
	Idx int
}

// ColumnRef names a column, optionally qualified by table alias.
type ColumnRef struct {
	Table string
	Name  string
}

// BinaryExpr applies an operator to two operands. Op is one of:
// = <> < <= > >= AND OR LIKE.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

func (*Literal) expr()     {}
func (*Placeholder) expr() {}
func (*ColumnRef) expr()   {}
func (*BinaryExpr) expr()  {}
