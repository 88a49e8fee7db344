package mj

type parser struct{}

func (*parser) binaryLevel() {}
func (*parser) orExpr()      {}
func (*parser) andExpr()     {}
func (*parser) bitOrExpr()   {}
func (*parser) bitXorExpr()  {}
func (*parser) bitAndExpr()  {}
func (*parser) eqExpr()      {}
func (*parser) relExpr()     {}
func (*parser) shiftExpr()   {}
func (*parser) addExpr()     {}
func (*parser) mulExpr()     {}

var arithOps = map[string]int{}

var cmpOps = map[string]int{}
