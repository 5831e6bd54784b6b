package rubis

import (
	"strconv"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/trace"
	"wadeploy/internal/web"
)

// Page names (Tables 4 and 5).
const (
	PageMain          = "Main"
	PageBrowse        = "Browse"
	PageAllCategories = "AllCategories"
	PageAllRegions    = "AllRegions"
	PageRegion        = "Region"
	PageCategory      = "Category"
	PageCatRegion     = "CategoryRegion"
	PageItem          = "Item"
	PageBids          = "Bids"
	PageUserInfo      = "UserInfo"

	PagePutBidAuth     = "PutBidAuth"
	PagePutBidForm     = "PutBidForm"
	PageStoreBid       = "StoreBid"
	PagePutCommentAuth = "PutCommentAuth"
	PagePutCommentForm = "PutCommentForm"
	PageStoreComment   = "StoreComment"
)

// BrowserPages lists the browser-session pages with Table 4 weights (in
// fortieths, i.e. requests per 40-page session).
var BrowserPages = []struct {
	Page   string
	Weight int
}{
	{PageMain, 1},
	{PageBrowse, 1},
	{PageAllCategories, 1},
	{PageAllRegions, 1},
	{PageRegion, 1},
	{PageCategory, 3},
	{PageCatRegion, 3},
	{PageItem, 17},
	{PageBids, 6},
	{PageUserInfo, 6},
}

// BidderPages is the fixed bidder-session sequence (Table 5).
var BidderPages = []string{
	PageMain, PagePutBidAuth, PagePutBidForm, PageStoreBid,
	PagePutCommentAuth, PagePutCommentForm, PageStoreComment,
}

// render charges the page's render cost on srv and returns its response.
func (a *App) render(p *sim.Proc, srv *container.Server, page string) *web.Response {
	defer trace.Op(p, "render", page, srv.Name(), "", trace.CauseService)()
	c := a.costs[page]
	srv.Compute(p, c.CPU)
	p.Sleep(c.Lat)
	return c.Page
}

func intParam(r *web.Request, key string) int64 {
	n, _ := strconv.ParseInt(r.Param(key), 10, 64)
	return n
}

// registerPages installs one servlet per page on srv (the "linear" RUBiS
// architecture: servlet -> dedicated session façade -> entity beans).
func (a *App) registerPages(srv *container.Server) {
	w := srv.Web()

	static := func(page string) {
		w.Handle(page, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
			return a.render(p, srv, page), nil
		})
	}
	static(PageMain)
	static(PageBrowse)
	static(PagePutBidAuth)
	static(PagePutCommentAuth)

	// one wires a page to a single façade call — the design rule the
	// paper enforces ("only one RMI call from the web layer to the EJB
	// layer in every servlet web page generation method") — passing the
	// request parameters named by strs as strings, then those named by
	// ints as integers. The argument list is built on the page's stack.
	one := func(page, bean, method string, strs []string, ints ...string) {
		w.Handle(page, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
			stub, err := a.sbStub(p, srv, bean)
			if err != nil {
				return nil, err
			}
			var buf [3]sqldb.Value
			args := buf[:0]
			for _, k := range strs {
				args = append(args, sqldb.Str(r.Param(k)))
			}
			for _, k := range ints {
				args = append(args, sqldb.Int(intParam(r, k)))
			}
			if _, err := stub.Invoke(p, method, args...); err != nil {
				return nil, err
			}
			return a.render(p, srv, page), nil
		})
	}

	creds := []string{"nick", "password"}
	one(PageAllCategories, SBBrowseCategories, "getAll", nil)
	one(PageAllRegions, SBBrowseRegions, "getAll", nil)
	one(PageRegion, SBBrowseCategories, "forRegion", nil, "region")
	one(PageCategory, SBSearchByCategory, "get", nil, "cat")
	one(PageCatRegion, SBSearchByRegion, "get", nil, "cat", "region")
	one(PageItem, SBViewItem, "get", nil, "item")
	one(PageBids, SBViewBidHistory, "get", nil, "item")
	one(PageUserInfo, SBViewUserInfo, "get", nil, "user")
	one(PagePutBidForm, SBPutBid, "form", creds, "item")
	one(PagePutCommentForm, SBPutComment, "form", creds, "to")

	// Write pages always reach the central store façades (read-write
	// access to shared components lives on the main server).
	w.Handle(PageStoreBid, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		stub, err := srv.StubFor(p, a.d.Main.Name(), SBStoreBid)
		if err != nil {
			return nil, err
		}
		amount, _ := strconv.ParseFloat(r.Param("bid"), 64)
		if _, err := stub.Invoke(p, "store", sqldb.Str(r.Param("nick")), sqldb.Str(r.Param("password")),
			sqldb.Int(intParam(r, "item")), sqldb.Float(amount)); err != nil {
			return nil, err
		}
		return a.render(p, srv, PageStoreBid), nil
	})
	w.Handle(PageStoreComment, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		stub, err := srv.StubFor(p, a.d.Main.Name(), SBStoreComment)
		if err != nil {
			return nil, err
		}
		if _, err := stub.Invoke(p, "store", sqldb.Str(r.Param("nick")), sqldb.Str(r.Param("password")),
			sqldb.Int(intParam(r, "to")), sqldb.Int(intParam(r, "item")), sqldb.Int(intParam(r, "rating"))); err != nil {
			return nil, err
		}
		return a.render(p, srv, PageStoreComment), nil
	})
}
